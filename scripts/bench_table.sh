#!/usr/bin/env sh
# Regenerates the README "Performance" bench table from the BENCH_*.json
# files the fume-bench harnesses write at the workspace root.
#
#   scripts/bench_table.sh           # print the markdown table
#   scripts/bench_table.sh --write   # splice it into README.md between
#                                    # the bench-table markers
#
# Field extraction is sed-only on purpose: the JSON is one flat object
# per file, written by our own harnesses, and verify.sh reads the same
# files the same way.
set -eu

cd "$(dirname "$0")/.."

field() { # field <file> <key> -> value or "?"
    v=$(sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1" 2>/dev/null || true)
    [ -n "$v" ] && printf '%s' "$v" || printf '?'
}

mode() { # mode <file> -> the string "mode" field or "?"
    v=$(sed -n 's/.*"mode":"\([a-z]*\)".*/\1/p' "$1" 2>/dev/null || true)
    [ -n "$v" ] && printf '%s' "$v" || printf '?'
}

table() {
    echo "| bench | mode | headline | verify.sh gate |"
    echo "|---|---|---|---|"

    f=BENCH_unlearn_eval.json
    if [ -f "$f" ]; then
        echo "| \`unlearn_eval\` | $(mode $f) | pooled $(field $f speedup)x over clone-per-eval ($(field $f pool_evals_per_sec) evals/s) | >= 1.0x |"
    fi

    f=BENCH_predict.json
    if [ -f "$f" ]; then
        echo "| \`predict_kernel\` | $(mode $f) | kernel $(field $f speedup)x over the reference walk ($(field $f kernel_rows_per_sec) rows/s, bitwise identical) | >= 1.5x |"
    fi

    f=BENCH_serve.json
    if [ -f "$f" ]; then
        echo "| \`serve_throughput\` | $(mode $f) | warm (cached) requests $(field $f speedup)x over cold ($(field $f warm_rps) req/s) | >= 1.0x |"
    fi

    f=BENCH_trace.json
    if [ -f "$f" ]; then
        echo "| \`trace_parse\` | $(mode $f) | $(field $f parse_mb_per_sec) MB/s parse, $(field $f aggregate_mevents_per_sec) Mevents/s aggregate | reported |"
    fi
}

if [ "${1:-}" = "--write" ]; then
    tmp=$(mktemp)
    table > "$tmp.table"
    awk -v table="$tmp.table" '
        /<!-- bench-table:start -->/ {
            print; while ((getline line < table) > 0) print line; skip = 1; next
        }
        /<!-- bench-table:end -->/ { skip = 0 }
        !skip { print }
    ' README.md > "$tmp"
    mv "$tmp" README.md
    rm -f "$tmp.table"
    echo "README.md bench table updated"
else
    table
fi
