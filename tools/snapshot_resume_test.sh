#!/usr/bin/env bash
# snapshot_resume_test.sh — end-to-end crash-injection test for the
# cgct_sweep resume journal (docs/SNAPSHOT.md).
#
# Crashes cgct_sweep mid-matrix twice via the CGCT_TEST_CRASH_AFTER_CELLS
# hook (_exit(86) straight after the Nth journal append — no flush, no
# teardown), resumes from the journal each time, and requires the final
# CSV of the default matrix to match golden::kDefaultSweepSha256 in
# tests/golden.hpp — i.e. crash-resume-resume produces byte-identical
# output to one uninterrupted run.
#
#   tools/snapshot_resume_test.sh <cgct_sweep-binary> <repo-root>
#
# Wired into ctest as `snapshot_resume` (RUN_SERIAL; see
# tests/CMakeLists.txt).

set -u

sweep="${1:?usage: snapshot_resume_test.sh <cgct_sweep> <repo-root>}"
root="${2:?usage: snapshot_resume_test.sh <cgct_sweep> <repo-root>}"

expected=$(grep -A1 'kDefaultSweepSha256 =' "$root/tests/golden.hpp" |
    grep -oE '[0-9a-f]{64}')
if [ -z "$expected" ]; then
    echo "snapshot_resume_test: no kDefaultSweepSha256 in" \
         "tests/golden.hpp" >&2
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
journal="$tmp/sweep.journal"

# Crash 1: die after 5 completed cells.
CGCT_TEST_CRASH_AFTER_CELLS=5 \
    "$sweep" --no-progress --resume "$journal" > "$tmp/part1.csv"
status=$?
if [ "$status" -ne 86 ]; then
    echo "snapshot_resume_test: expected crash exit 86, got $status" >&2
    exit 1
fi

# Crash 2: resume, then die again deeper into the matrix. Proves a
# journal written across several crashed processes still composes.
CGCT_TEST_CRASH_AFTER_CELLS=7 \
    "$sweep" --no-progress --resume "$journal" > "$tmp/part2.csv"
status=$?
if [ "$status" -ne 86 ]; then
    echo "snapshot_resume_test: expected second crash exit 86," \
         "got $status" >&2
    exit 1
fi

# Final resume: run the remainder to completion.
"$sweep" --no-progress --resume "$journal" > "$tmp/final.csv"
status=$?
if [ "$status" -ne 0 ]; then
    echo "snapshot_resume_test: final resume failed with $status" >&2
    exit 1
fi

actual=$(sha256sum "$tmp/final.csv" | cut -d' ' -f1)
if [ "$actual" != "$expected" ]; then
    echo "snapshot_resume_test: resumed sweep digest $actual does not" \
         "match recorded digest $expected" >&2
    exit 1
fi

# The interrupted runs must emit clean prefixes of the final CSV.
for part in "$tmp/part1.csv" "$tmp/part2.csv"; do
    lines=$(wc -l < "$part")
    if [ "$lines" -gt 0 ] &&
       ! cmp -s -n "$(wc -c < "$part")" "$part" "$tmp/final.csv"; then
        echo "snapshot_resume_test: $part is not a byte prefix of the" \
             "final CSV" >&2
        exit 1
    fi
done

echo "snapshot_resume_test: crash-resume-resume reproduced digest" \
     "$expected"
