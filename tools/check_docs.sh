#!/usr/bin/env bash
# check_docs.sh — fail when the code and the documentation disagree.
#
# Guards, in order:
#   1. Every option a tool registers through ArgParser::addFlag/addU64/
#      addUnsigned/addString (in tools/<tool>.cpp, and in
#      tools/run_flags.cpp if it includes run_flags.hpp) must appear in
#      docs/SWEEP.md as `--name`, and every positional registered
#      through addPositional as `<name>`.
#      Conversely, every `--name` cited inside backticks in README.md,
#      EXPERIMENTS.md or docs/*.md must be registered by some tool or
#      by benchmark/run.py's argparse, so a retired flag cannot linger
#      in the prose (allowed besides: ArgParser's built-in --help,
#      gtest's --gtest_filter and ctest's --preset/--test-dir); one
#      cited after a tool's name, in a span or a code-block line, or
#      in a row of the tool's own table in docs/SWEEP.md, must be
#      registered by that tool.
#   2. docs/PERF.md must cover the perf tooling and build knobs, and its
#      "Golden results" section must list every constant in
#      tests/golden.hpp and every SamplingPin case, each with its value.
#   3. Every trace event type in the CGCT_TRACE_EVENT_TYPES X-macro
#      (src/common/trace_sink.hpp) must be documented in docs/TRACING.md.
#   4. Every histogram/distribution stat (a name passed to addHistogram,
#      addDistribution or collectRunResult's snapshot, the call wrapped or
#      not) must be documented in docs/TRACING.md; finding none fails.
#   5. docs/ARCHITECTURE.md must exist and be cross-linked from
#      README.md, DESIGN.md, docs/PERF.md, and docs/SWEEP.md.
#   6. docs/SNAPSHOT.md must cover the CGCTSNAP image format and its
#      writer and reader, state the CGCTSNAP version the source defines
#      (kSnapshotVersion), and be cross-linked from README.md,
#      docs/SWEEP.md, and docs/ARCHITECTURE.md.
#   7. docs/TRACE_FORMAT.md's record table must list exactly the v2
#      record types of the CGCT_TRACE_V2_RECORD_TYPES X-macro
#      (src/workload/trace_format.hpp), opcode and name. The cgct_trace
#      subcommands are read from tools/cgct_trace.cpp: each must appear
#      in docs/TRACE_FORMAT.md and in docs/SWEEP.md's cgct_trace table,
#      and neither may name one the code lacks. TRACE_FORMAT.md must also
#      document every cgct_trace flag and the format invariants, and be
#      cross-linked from README.md, docs/SWEEP.md, and
#      docs/ARCHITECTURE.md.
#   8. docs/SAMPLING.md must cover the sampling flags, both warming modes,
#      the CI math and its stat names, the validation tests and golden
#      cell, and the "when not to trust" caveats, and be cross-linked from
#      README.md, docs/SWEEP.md, and docs/ARCHITECTURE.md.
#   9. docs/TOPOLOGY.md must cover the scalable interconnects: the
#      --nodes/--topology flags and all three topology names, the
#      presence-filter escape rule and its trace events, the directory
#      protocol, the invariant-checker extension, the topology_warn
#      smoke, and the golden traffic pins, and be cross-linked from
#      README.md, docs/SWEEP.md, docs/ARCHITECTURE.md, and
#      docs/TRACING.md.
#  10. docs/CONTRACTS.md's rows and the tests labelled `contract` in
#      tests/CMakeLists.txt must be the same set: a row may not name a
#      test that carries no such label, and a labelled test (a TEST or
#      TEST_P of a source built by `cgct_test(<name> contract)`, or a
#      test whose set_tests_properties LABELS include contract) must
#      have a row. The
#      contracts' former homes — docs/PERF.md, docs/SWEEP.md's
#      "Determinism contract", docs/SNAPSHOT.md's headline,
#      docs/SAMPLING.md and docs/ARCHITECTURE.md — must link to a row
#      and must not restate a contract.
#  11. Every binary path `build…/<dir>/<name>` cited in README.md,
#      DESIGN.md, EXPERIMENTS.md, docs/*.md or a skills/ note under a
#      top-level dot-directory must name a target that some
#      CMakeLists.txt builds (add_executable, add_library, or a function
#      that wraps them), so a retired binary cannot linger in the docs.
#      CHANGES.md, ROADMAP.md and benchmark/ are history or have their
#      own build, and are not checked.
#
# Run from anywhere:
#
#   tools/check_docs.sh [repo-root]
#
# Wired into ctest as the `docs_check` test (see tests/CMakeLists.txt).

set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
doc="$root/docs/SWEEP.md"
fail=0

if [ ! -f "$doc" ]; then
    echo "check_docs: $doc is missing" >&2
    exit 1
fi

# listed <word> <list>: true when the newline-separated list holds word.
listed() { [[ $'\n'$2$'\n' == *$'\n'"$1"$'\n'* ]]; }

# The tools, and the flags each registers: its own, plus the shared run
# flags of tools/run_flags.cpp when it includes run_flags.hpp.
tools=$(cd "$root/tools" && ls cgct_*.cpp | sed 's/\.cpp$//')
declare -A flags_of
for tool in $tools; do
    src="$root/tools/$tool.cpp"
    srcs="$src"
    grep -q '"run_flags.hpp"' "$src" && srcs="$src $root/tools/run_flags.cpp"
    # shellcheck disable=SC2086 # srcs is a list of files.
    flags_of[$tool]=$(cat $srcs |
        grep -oE 'add(Flag|U64|Unsigned|String)\("[A-Za-z0-9-]+"' |
        sed -E 's/.*\("([A-Za-z0-9-]+)"/\1/' | sort -u)

    for flag in ${flags_of[$tool]}; do
        if ! grep -q -- "--$flag" "$doc"; then
            echo "check_docs: $tool flag --$flag is not documented" \
                 "in docs/SWEEP.md" >&2
            fail=1
        fi
    done

    positionals=$(grep -oE 'addPositional\("[A-Za-z0-9-]+"' "$src" |
        sed -E 's/.*\("([A-Za-z0-9-]+)"/\1/' | sort -u)
    for pos in $positionals; do
        if ! grep -q -- "<$pos>" "$doc"; then
            echo "check_docs: $tool positional <$pos> is not documented" \
                 "in docs/SWEEP.md" >&2
            fail=1
        fi
    done
done

# Every `--name` inside a backticked span of the prose docs, against the
# tools' flags, benchmark/run.py's and the allow-list above.
known=$( (for tool in $tools; do echo "${flags_of[$tool]}"; done
          grep -oE 'add_argument\("--[A-Za-z0-9-]+"' \
              "$root/benchmark/run.py" | sed -E 's/.*"--([A-Za-z0-9-]+)"/\1/'
          printf '%s\n' help gtest_filter preset test-dir) | sort -u)
prose=("$root"/README.md "$root"/EXPERIMENTS.md "$root"/docs/*.md)
for file in "${prose[@]}"; do
    cited_flags=$(grep -oE '`[^`]+`' "$file" |
        grep -oE '(^|[^A-Za-z0-9-])--[A-Za-z0-9][A-Za-z0-9_-]*' |
        sed -E 's/.*--//' | sort -u)
    for flag in $cited_flags; do
        if ! grep -qx -- "$flag" <<< "$known"; then
            echo "check_docs: ${file#"$root"/} cites --$flag, which no" \
                 "tools/*.cpp or benchmark/run.py registers" >&2
            fail=1
        fi
    done

    # Per tool: the flags after a tool's name in a span or a code-block
    # line, up to a "|", "&" or ";", must be that tool's own (a flag no
    # tool knows is reported above).
    while read -r tool flag; do
        if [ "$flag" != help ] && listed "$flag" "$known" &&
           ! listed "$flag" "${flags_of[$tool]}"; then
            echo "check_docs: ${file#"$root"/} cites \`$tool --$flag\`," \
                 "which $tool does not register" >&2
            fail=1
        fi
    done < <( (grep -oE '`[^`]+`' "$file"
               awk '/^[[:space:]]*```/ { f = !f; next } f' "$file") |
              grep -oE 'cgct_(sim|sweep|paper|trace)( [^|;&`]*)?' |
              grep -oE '^cgct_[a-z]+|(^|[^A-Za-z0-9-])--[A-Za-z0-9][A-Za-z0-9_-]*' |
              awk '/^cgct_/ { tool = $0; next } { sub(/.*--/, ""); print tool, $0 }')
done

# Per tool: its table in docs/SWEEP.md lists only its own flags.
for tool in $tools; do
    for flag in $(sed -n "/^## \`$tool\`/,/^## /p" "$doc" |
                      grep -oE '^\| `--[A-Za-z0-9-]+' | sed 's/^| `--//'); do
        if ! listed "$flag" "${flags_of[$tool]}"; then
            echo "check_docs: docs/SWEEP.md's $tool table documents" \
                 "--$flag, which $tool does not register" >&2
            fail=1
        fi
    done
done

# Performance documentation: docs/PERF.md must exist and cover the perf
# tooling entry points and build knobs, and its "Golden results" section
# must list every frozen digest — the golden.hpp constants and the
# SamplingPin cases — with its value, so no pin goes undocumented.
perf_doc="$root/docs/PERF.md"
if [ ! -f "$perf_doc" ]; then
    echo "check_docs: $perf_doc is missing" >&2
    fail=1
else
    for token in benchmark/run.py --compare --check CGCT_SANITIZE \
                 cgct_sweep cgct_pgo_train sanitize_hotpath \
                 test_hotpath_allocs test_hotpath_differential \
                 test_sweep_identity; do
        if ! grep -q -- "$token" "$perf_doc"; then
            echo "check_docs: docs/PERF.md does not mention $token" >&2
            fail=1
        fi
    done

    golden_doc=$(awk '/^## Golden results/ { on = 1; next }
                      on && /^## / { exit }
                      on' "$perf_doc")
    # "name value" per pin: golden.hpp constants (string or 0x literal)
    # and SamplingPin cases (name ... sha256).
    pins=$( (tr '\n' ' ' < "$root/tests/golden.hpp" |
             grep -oE 'constexpr [^;]*;' |
             sed -E 's/.*[ *](k[A-Za-z0-9]+) =[^"0-9]*"?(0x)?([0-9a-f]+).*/\1 \3/'
             tr '\n' ' ' < "$root/tests/test_sampling.cpp" |
             grep -oE 'PinCase\{"[a-z0-9_]+"[^}]*"[0-9a-f]{64}"' |
             sed -E 's/PinCase\{"([a-z0-9_]+)".*"([0-9a-f]{64})"/\1 \2/') )
    if [ -z "$pins" ]; then
        echo "check_docs: found no golden pins in tests/golden.hpp or" \
             "tests/test_sampling.cpp" >&2
        fail=1
    fi
    while read -r name value; do
        [ -n "$name" ] || continue
        if ! grep -q -- "$name" <<< "$golden_doc" ||
           ! grep -q -- "$value" <<< "$golden_doc"; then
            echo "check_docs: pin $name ($value) is not in the \"Golden" \
                 "results\" section of docs/PERF.md" >&2
            fail=1
        fi
    done <<< "$pins"
fi

# Tracing documentation: every event type in the X-macro and every
# registered histogram/distribution stat must appear in docs/TRACING.md,
# so the trace schema can't drift from its documentation.
trace_doc="$root/docs/TRACING.md"
if [ ! -f "$trace_doc" ]; then
    echo "check_docs: $trace_doc is missing" >&2
    fail=1
else
    event_types=$(grep -oE '^[[:space:]]+X\([a-z_]+\)' \
        "$root/src/common/trace_sink.hpp" |
        sed -E 's/.*X\(([a-z_]+)\)/\1/' | sort -u)
    if [ -z "$event_types" ]; then
        echo "check_docs: found no trace event types in" \
             "src/common/trace_sink.hpp (X-macro moved?)" >&2
        fail=1
    fi
    for ev in $event_types; do
        if ! grep -q -- "\`$ev\`" "$trace_doc"; then
            echo "check_docs: trace event type $ev is not documented" \
                 "in docs/TRACING.md" >&2
            fail=1
        fi
    done

    stat_names=$(grep -rhozE \
        '(add(Histogram|Distribution)|snapshot)\(\s*"[A-Za-z0-9_.]+"' "$root/src" |
        tr '\0\n' '\n ' | sed -E 's/.*"([A-Za-z0-9_.]+)"/\1/' | sort -u)
    if [ -z "$stat_names" ]; then
        echo "check_docs: found no histogram/distribution stats in src/" \
             "(registrations moved?)" >&2
        fail=1
    fi
    for stat in $stat_names; do
        if ! grep -q -- "$stat" "$trace_doc"; then
            echo "check_docs: histogram/distribution stat $stat is not" \
                 "documented in docs/TRACING.md" >&2
            fail=1
        fi
    done
fi

# Architecture documentation: docs/ARCHITECTURE.md must exist and be
# reachable from the entry-point docs.
arch_doc="$root/docs/ARCHITECTURE.md"
if [ ! -f "$arch_doc" ]; then
    echo "check_docs: $arch_doc is missing" >&2
    fail=1
else
    for ref in README.md DESIGN.md docs/PERF.md docs/SWEEP.md; do
        if ! grep -q "ARCHITECTURE.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/ARCHITECTURE.md" \
                 >&2
            fail=1
        fi
    done
fi

# Snapshot documentation: docs/SNAPSHOT.md must cover the CGCTSNAP
# image format and its one writer and reader, and be reachable from the
# entry-point docs.
snap_doc="$root/docs/SNAPSHOT.md"
if [ ! -f "$snap_doc" ]; then
    echo "check_docs: $snap_doc is missing" >&2
    fail=1
else
    for token in CGCTSNAP xxhash64 fingerprint \
                 golden.hpp setPauseAt resumePhase \
                 saveImage restoreImage; do
        if ! grep -q -- "$token" "$snap_doc"; then
            echo "check_docs: docs/SNAPSHOT.md does not mention $token" >&2
            fail=1
        fi
    done
    # The "currently N" version under the format's magic must be the
    # one the source writes.
    src_ver=$(grep -oE "kSnapshotVersion = [0-9]+" \
        "$root/src/snapshot/serializer.hpp" | grep -oE '[0-9]+$')
    doc_ver=$(awk 'index($0, "\"CGCTSNAP\"") {
            getline
            if (match($0, /currently [0-9]+/))
                print substr($0, RSTART + 10, RLENGTH - 10)
            exit
        }' "$snap_doc")
    if [ -z "$src_ver" ] || [ "$src_ver" != "$doc_ver" ]; then
        echo "check_docs: docs/SNAPSHOT.md states CGCTSNAP version" \
             "${doc_ver:-(none)}, but kSnapshotVersion in" \
             "src/snapshot/serializer.hpp is ${src_ver:-(not found)}" >&2
        fail=1
    fi
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md; do
        if ! grep -q "SNAPSHOT.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/SNAPSHOT.md" >&2
            fail=1
        fi
    done
fi

# Trace on-disk format documentation: docs/TRACE_FORMAT.md is the
# byte-level contract for the record/replay files. Its record table and
# the CGCT_TRACE_V2_RECORD_TYPES X-macro must list the same opcodes, and
# the cgct_trace subcommands and flags it (and docs/SWEEP.md) documents
# must be the ones tools/cgct_trace.cpp has, so the spec cannot drift
# from the codec or the tool in either direction.
fmt_doc="$root/docs/TRACE_FORMAT.md"
fmt_hdr="$root/src/workload/trace_format.hpp"
trace_cpp="$root/tools/cgct_trace.cpp"
if [ ! -f "$fmt_doc" ]; then
    echo "check_docs: $fmt_doc is missing" >&2
    fail=1
else
    # "0x01 ifetch" pairs, from the X-macro and from the doc's table rows.
    code_recs=$(grep -oE '^[[:space:]]*X\([a-z_]+, 0x[0-9A-Fa-f]+\)' \
        "$fmt_hdr" | sed -E 's/.*X\(([a-z_]+), (0x[0-9A-Fa-f]+)\).*/\2 \1/' |
        tr 'A-F' 'a-f' | sort -u)
    doc_recs=$(grep -oE '^\| `0x[0-9A-Fa-f]{2}` \| `[a-z_]+` \|' "$fmt_doc" |
        sed -E 's/^\| `(0x[0-9A-Fa-f]{2})` \| `([a-z_]+)`.*/\1 \2/' |
        tr 'A-F' 'a-f' | sort -u)
    if [ -z "$code_recs" ]; then
        echo "check_docs: found no v2 record types in" \
             "src/workload/trace_format.hpp (X-macro moved?)" >&2
        fail=1
    fi
    while read -r rec; do
        [ -n "$rec" ] || continue
        echo "check_docs: v2 record type '$rec' has no row in the" \
             "docs/TRACE_FORMAT.md record table" >&2
        fail=1
    done <<< "$(comm -23 <(echo "$code_recs") <(echo "$doc_recs"))"
    while read -r rec; do
        [ -n "$rec" ] || continue
        echo "check_docs: docs/TRACE_FORMAT.md's record table lists" \
             "'$rec', which is not in CGCT_TRACE_V2_RECORD_TYPES" >&2
        fail=1
    done <<< "$(comm -13 <(echo "$code_recs") <(echo "$doc_recs"))"

    trace_flags=$(grep -oE \
        'add(Flag|U64|Unsigned|String)\("[A-Za-z0-9-]+"' "$trace_cpp" |
        sed -E 's/.*\("([A-Za-z0-9-]+)"/\1/' | sort -u)
    for flag in $trace_flags; do
        if ! grep -q -- "--$flag" "$fmt_doc"; then
            echo "check_docs: cgct_trace flag --$flag is not documented" \
                 "in docs/TRACE_FORMAT.md" >&2
            fail=1
        fi
    done

    # Subcommands: the code's `command == "name"` branches, against
    # `cgct_trace name` in TRACE_FORMAT.md and the subcommand rows of
    # SWEEP.md's cgct_trace section.
    code_cmds=$(grep -oE 'command == "[a-z]+"' "$trace_cpp" |
        sed -E 's/.*"([a-z]+)"/\1/' | sort -u)
    fmt_cmds=$(grep -oE 'cgct_trace [a-z]+' "$fmt_doc" |
        sed 's/cgct_trace //' | sort -u)
    sweep_cmds=$(sed -n '/^## `cgct_trace`/,/^## /p' "$doc" |
        grep -oE '^\| `[a-z]+` \|' | sed -E 's/^\| `([a-z]+)`.*/\1/' |
        sort -u)
    if [ -z "$code_cmds" ]; then
        echo "check_docs: found no subcommands in tools/cgct_trace.cpp" \
             "(dispatch moved?)" >&2
        fail=1
    fi
    for where in "docs/TRACE_FORMAT.md:$fmt_cmds" \
                 "docs/SWEEP.md's cgct_trace table:$sweep_cmds"; do
        name="${where%%:*}"
        cmds="${where#*:}"
        while read -r cmd; do
            [ -n "$cmd" ] || continue
            echo "check_docs: cgct_trace subcommand '$cmd' is not" \
                 "documented in $name" >&2
            fail=1
        done <<< "$(comm -23 <(echo "$code_cmds") <(echo "$cmds"))"
        while read -r cmd; do
            [ -n "$cmd" ] || continue
            echo "check_docs: $name documents cgct_trace '$cmd'," \
                 "which tools/cgct_trace.cpp does not have" >&2
            fail=1
        done <<< "$(comm -13 <(echo "$code_cmds") <(echo "$cmds"))"
    done

    for token in xxhash64 trace_id payload_hash directory_offset \
                 little-endian ops_declared num_lanes sync_ops \
                 TraceWriter; do
        if ! grep -q -- "$token" "$fmt_doc"; then
            echo "check_docs: docs/TRACE_FORMAT.md does not mention" \
                 "$token" >&2
            fail=1
        fi
    done
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md; do
        if ! grep -q "TRACE_FORMAT.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to" \
                 "docs/TRACE_FORMAT.md" >&2
            fail=1
        fi
    done
fi

# Sampling methodology documentation: docs/SAMPLING.md is the
# measurement handbook for sampled runs. It must cover the flags, both
# warming modes, the CI statistics surfaced in JSON/CSV, the math they
# come from, the validation tests and golden cell, and the caveats that
# bound when a sampled number can be trusted.
sampling_doc="$root/docs/SAMPLING.md"
if [ ! -f "$sampling_doc" ]; then
    echo "check_docs: $sampling_doc is missing" >&2
    fail=1
else
    for token in --sample --window-ops --warm-mode functional detailed \
                 SMARTS Student-t tCritical95 ci95_half stddev \
                 window_cycles avoided_fraction l2_miss_ratio \
                 avg_miss_latency avg_broadcasts_per_100k warm_mode \
                 span_ops sampled_ops CGCTSNAP Cold-start \
                 peak_bcast_per_100k test_sampling test_confidence \
                 RecordedCellAgainstFullDetail; do
        if ! grep -q -- "$token" "$sampling_doc"; then
            echo "check_docs: docs/SAMPLING.md does not mention $token" \
                 >&2
            fail=1
        fi
    done
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md; do
        if ! grep -q "SAMPLING.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/SAMPLING.md" >&2
            fail=1
        fi
    done
fi

# Scalable-interconnect documentation: docs/TOPOLOGY.md is the design
# contract for --nodes/--topology. It must cover the three topologies,
# the presence-filter escape rule, the directory protocol, the
# distance classes, the invariant machinery, the topology_warn smoke, and
# the golden pins that freeze the traffic split.
topo_doc="$root/docs/TOPOLOGY.md"
if [ ! -f "$topo_doc" ]; then
    echo "check_docs: $topo_doc is missing" >&2
    fail=1
else
    for token in --nodes --topology hier dir bus hier_escape \
                 dir_lookup presence sharer resolveRequest \
                 localSnoopLatency dirLookupLatency controllerOf \
                 OwnChip SameSwitch SameBoard Remote check-invariants \
                 corruptPresenceForTest corruptSharersForTest \
                 test_topology topology_warn TopologyPin \
                 local_resolves interchip_broadcasts; do
        if ! grep -q -- "$token" "$topo_doc"; then
            echo "check_docs: docs/TOPOLOGY.md does not mention $token" >&2
            fail=1
        fi
    done
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md \
               docs/TRACING.md; do
        if ! grep -q "TOPOLOGY.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/TOPOLOGY.md" >&2
            fail=1
        fi
    done
fi

# Determinism contracts: docs/CONTRACTS.md states each contract once and
# names the one test that checks it. Its rows and the tests labelled
# `contract` must be the same set, and the documents that used to state
# the contracts must link to a row instead.
contracts_doc="$root/docs/CONTRACTS.md"
tests_cmake="$root/tests/CMakeLists.txt"
if [ ! -f "$contracts_doc" ]; then
    echo "check_docs: $contracts_doc is missing" >&2
    fail=1
else
    # "Suite.Name" for each TEST/TEST_P of a contract-labelled gtest
    # source, and each test set_tests_properties labels contract (an
    # add_test, or one case of a gtest executable).
    labelled=$( (
        for src in $(sed -nE 's/^cgct_test\((test_[a-z0-9_]+) contract\)$/\1/p' \
                         "$tests_cmake"); do
            tr '\n' ' ' < "$root/tests/$src.cpp" |
                grep -oE 'TEST(_P|_F)?\([[:space:]]*[A-Za-z0-9_]+,[[:space:]]*[A-Za-z0-9_]+\)' |
                sed -E 's/TEST(_P|_F)?\([[:space:]]*([A-Za-z0-9_]+),[[:space:]]*([A-Za-z0-9_]+)\)/\2.\3/'
        done
        tr '\n' ' ' < "$tests_cmake" |
            grep -oE 'set_tests_properties\([A-Za-z0-9_.]+ PROPERTIES[^)]*LABELS[[:space:]]+\\?"?[a-z_;]*contract' |
            sed -E 's/set_tests_properties\(([A-Za-z0-9_.]+) .*/\1/'
    ) | sort -u)
    # The backquoted names in each row's test column (the fourth cell).
    rows=$(grep -E '^\| <a id="row-[0-9]+"></a>' "$contracts_doc" |
        awk -F'|' '{ print $5 }' | grep -oE '`[^`]+`' | tr -d '`' |
        sort -u)
    if [ -z "$labelled" ] || [ -z "$rows" ]; then
        echo "check_docs: found no contract-labelled tests in" \
             "tests/CMakeLists.txt or no rows in docs/CONTRACTS.md" >&2
        fail=1
    fi
    # As an anchored regex a row `Suite.*` matches every test of Suite.
    row_res=$(sed -e 's/\./\\./g' -e 's/\*/.*/g' <<< "$rows")
    for row in $rows; do
        re=$(sed -e 's/\./\\./g' -e 's/\*/.*/g' <<< "$row")
        if ! grep -qxE -- "$re" <<< "$labelled"; then
            echo "check_docs: docs/CONTRACTS.md names test $row, which" \
                 "no test labelled contract in tests/CMakeLists.txt" \
                 "matches" >&2
            fail=1
        fi
    done
    while read -r t; do
        [ -n "$t" ] || continue
        echo "check_docs: test $t is labelled contract but has no row" \
             "in docs/CONTRACTS.md" >&2
        fail=1
    done <<< "$(grep -vxEf <(echo "$row_res") <<< "$labelled")"

    # The former homes: each must link to a row and restate none.
    restated='byte-identical(ly)?( output)? at any|at any `--jobs` value|byte-identically|Same seeds ⇒|restore-then-run is byte-identical|changes no (statistic|result)'
    for home in docs/PERF.md docs/SAMPLING.md docs/ARCHITECTURE.md \
                "docs/SWEEP.md:## Determinism contract" \
                "docs/SNAPSHOT.md:# SNAPSHOT"; do
        file="${home%%:*}"
        if [ "$file" = "$home" ]; then
            text=$(cat "$root/$file")
        else
            # From the heading that starts with the given text to the
            # next heading.
            text=$(awk -v h="${home#*:}" 'index($0, h) == 1 { on = 1; next }
                                            on && /^#/ { exit }
                                            on' "$root/$file")
        fi
        where="$home"
        [ "$file" = "$home" ] || where="$file (\"${home#*:}\")"
        if ! grep -q 'CONTRACTS.md#row-[0-9]' <<< "$text"; then
            echo "check_docs: $where does not link to a row of" \
                 "docs/CONTRACTS.md" >&2
            fail=1
        fi
        while read -r line; do
            [ -n "$line" ] || continue
            echo "check_docs: $where restates a determinism contract" \
                 "instead of linking to its docs/CONTRACTS.md row:" \
                 "$line" >&2
            fail=1
        done <<< "$(grep -iE -- "$restated" <<< "$text")"
    done
fi

# Cited binaries: every build…/<dir>/<name> path in the user-facing docs
# must be a target some CMakeLists.txt defines.
cmakes=$(ls "$root"/CMakeLists.txt "$root"/*/CMakeLists.txt)
wrappers=$(grep -ohE '^function\([A-Za-z0-9_]+' $cmakes |
           sed 's/^function(//' | paste -sd'|')
targets=" $(grep -ohE "^[[:space:]]*(add_executable|add_library${wrappers:+|$wrappers})\([[:space:]]*[A-Za-z0-9_]+" \
              $cmakes | sed -E 's/.*\([[:space:]]*//' | sort -u |
              tr '\n' ' ')"
cited=$(grep -roE 'build[A-Za-z0-9_.-]*/[A-Za-z0-9_.-]+/[A-Za-z0-9_.-]+' \
            "$root"/README.md "$root"/DESIGN.md "$root"/EXPERIMENTS.md \
            "$root"/docs/*.md "$root"/.[!.]*/skills 2>/dev/null | sort -u)
while IFS=: read -r file path; do
    [ -n "$path" ] || continue
    case "$targets" in
        *" ${path##*/} "*) ;;
        *)
            echo "check_docs: ${file#"$root"/} cites $path, but no" \
                 "CMakeLists.txt builds a target named ${path##*/}" >&2
            fail=1
            ;;
    esac
done <<< "$cited"

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED — update docs/SWEEP.md / docs/PERF.md /" \
         "docs/TRACING.md / docs/ARCHITECTURE.md / docs/SNAPSHOT.md /" \
         "docs/TRACE_FORMAT.md / docs/SAMPLING.md / docs/TOPOLOGY.md /" \
         "docs/CONTRACTS.md, or the binary paths the docs cite" >&2
    exit 1
fi
echo "check_docs: flags, perf tooling, golden pins, trace event and" \
     "record types, stat names, sampling methodology, topology contract," \
     "determinism contracts, architecture cross-links and cited binaries" \
     "are all documented"
