#!/usr/bin/env sh
# Full offline verification: what CI runs, runnable on a disconnected box.
# Usage: scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test --offline (workspace)"
cargo test -q --offline --workspace

echo "==> cargo test --offline (explain_e2e benchmark package)"
# The benchmark is a package of its own outside the workspace, so the
# workspace run above does not reach its tests: the stats checks, the
# four-workload smoke test and the BENCHMARK.json name-drift check.
cargo test -q --offline --manifest-path crates/bench/src/bin/explain_e2e/Cargo.toml

echo "==> cargo clippy --offline -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc completeness: missing_docs is an error on fume-forest/fume-core"
cargo clippy --offline -q -p fume-forest -p fume-core --lib -- -D missing_docs

echo "==> fume-lint: custom static analysis (docs/static-analysis.md)"
cargo test -q --offline -p fume-lint
lint_report="target/fume-lint-report.json"
if ! cargo run --release --offline -q -p fume-lint -- --workspace --deny-all --json "$lint_report"; then
    echo "fume-lint found unsuppressed diagnostics (report: $lint_report)" >&2
    exit 1
fi
echo "    lint clean; JSON report at $lint_report"

echo "==> fume-trace: validate the e2e trace written by the test suite"
ft="target/release/fume-trace"
if [ ! -f target/trace_e2e.jsonl ]; then
    echo "tests did not leave target/trace_e2e.jsonl behind" >&2
    exit 1
fi
"$ft" check target/trace_e2e.jsonl
"$ft" summary target/trace_e2e.jsonl > /dev/null
"$ft" flame target/trace_e2e.jsonl > /dev/null

echo "==> bench smoke: unlearn-eval engine must not regress below clone-per-eval"
FUME_TRACE=target/bench_base.jsonl \
    cargo bench -q --offline -p fume-bench --bench unlearn_eval -- --smoke
speedup=$(sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p' BENCH_unlearn_eval.json)
if [ -z "$speedup" ]; then
    echo "could not read speedup from BENCH_unlearn_eval.json" >&2
    exit 1
fi
if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "pooled unlearn-eval path slower than clone-per-eval (speedup ${speedup}x)" >&2
    exit 1
fi
echo "    pooled path ${speedup}x over clone-per-eval"

echo "==> bench smoke: prediction kernel vs reference walk"
# The bench times DareForest::predict_proba (the kernel on the live node
# store) against the reference walk, and asserts full-vector bitwise
# equality before timing, so a passing run certifies correctness and
# speed together.
cargo bench -q --offline -p fume-bench --bench predict_kernel -- --smoke
kernel_speedup=$(sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p' BENCH_predict.json)
if [ -z "$kernel_speedup" ]; then
    echo "could not read speedup from BENCH_predict.json" >&2
    exit 1
fi
if ! awk -v s="$kernel_speedup" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "prediction kernel below the 1.5x gate over the reference walk (${kernel_speedup}x)" >&2
    exit 1
fi
echo "    kernel ${kernel_speedup}x over the reference walk"

echo "==> fume-trace diff: smoke bench run-to-run perf gate"
# A second identical run; the tolerance is generous (smoke runs are small
# and noisy) — the gate exists to catch order-of-magnitude regressions
# and disappearing instrumentation, not 5% jitter.
FUME_TRACE=target/bench_repro.jsonl \
    cargo bench -q --offline -p fume-bench --bench unlearn_eval -- --smoke > /dev/null
"$ft" check target/bench_base.jsonl
"$ft" check target/bench_repro.jsonl
"$ft" diff target/bench_base.jsonl target/bench_repro.jsonl --tolerance 75%

echo "==> bench smoke: trace parse throughput"
cargo bench -q --offline -p fume-bench --bench trace_parse -- --smoke
parse_mbps=$(sed -n 's/.*"parse_mb_per_sec":\([0-9.]*\).*/\1/p' BENCH_trace.json)
if [ -z "$parse_mbps" ]; then
    echo "could not read parse_mb_per_sec from BENCH_trace.json" >&2
    exit 1
fi
echo "    trace parser at ${parse_mbps} MB/s (BENCH_trace.json)"

echo "==> checkpoint/fault tests under FUME_DEEPCHECK=1 (runtime audits on)"
# The deep-check steps build with the `deepcheck` profile (Cargo.toml):
# the dev profile at opt-level 2, so debug assertions, overflow checks
# and FUME_FAULT sites stay on while the audits run at optimized speed.
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck --test checkpoint_resume
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck -p fume-core checkpoint
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck -p fume-obs fault

echo "==> forest fingerprints, node store and unlearning exactness under FUME_DEEPCHECK=1"
# The library's unit tests check the builder's row kernels (partition,
# survivor filters, one-pass histograms, the cut fast path) against
# reference versions, with overflow checks on their cursor arithmetic.
# The golden test pins the serialized bytes of fitted, unlearned,
# rolled-back and inserted forests; the node-store test checks the
# prediction kernel against the reference walk and the raw arrays after
# every rollback; the rerouted-pass test checks each eval's rerouted
# prediction pass against the full pass and the reference walk. With
# deep checks on, every journaled delete and rollback also re-validates
# the whole forest, every full prediction pass is compared bitwise with
# the reference walk, and every rerouted pass with the full pass.
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck -p fume-forest \
    --lib --test golden_fingerprint --test node_store --test rerouted_pass
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck --test unlearning_exactness
# The work ledger's pinned counts must not move under deep checks: every
# audit recomputation runs inside `fume_obs::audit`, which adds no counts.
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck --test work_ledger
# Every level-1 expansion reads a pair table (one per run, or one per
# serve session); with deep checks on, each one is compared with the
# reference join. The golden members take the one-shot table, and the
# lattice's unit tests the driver's, with overflow checks on.
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck --test golden_report
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck -p fume-lattice --lib

echo "==> lock-order deadlock detector: inversion fires, clean batteries stay silent"
# The fume-obs sync suite includes a deliberate AB/BA inversion that must
# produce a CycleReport, plus consistent-order runs that must not; the
# serve battery asserts zero cycles across a warm+cold session and a
# poison-recovery round (fume.sync.* counters), and every served job
# recomputes the session's prepared snapshot, level 1 and fingerprint
# and asserts them equal, and each level-1 expansion its pair table
# answers against the reference join. fume-serve's unit tests run the eval cache's
# slab list against a reference LRU with overflow checks on its index
# arithmetic.
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck -p fume-obs sync
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck --test serve_engine
FUME_DEEPCHECK=1 cargo test -q --offline --profile deepcheck -p fume-serve --lib

echo "==> fault-injection smoke: run -> inject -> resume -> diff against a plain run"
# Faults only exist in debug builds; build the debug CLI explicitly.
cargo build --offline -q --bin fume-cli
smoke_dir="target/fault-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
awk 'BEGIN {
    print "age,job,sex,approved";
    for (i = 0; i < 400; i++) {
        sex = (i % 2 == 0) ? "m" : "f";
        job = (int(i / 2) % 2 == 0) ? "clerk" : "manual";
        age = (int(i / 4) % 2 == 0) ? "young" : "old";
        ok = (sex == "m") ? (i % 3 != 0) : (i % 3 == 0);
        print age "," job "," sex "," ok;
    }
}' > "$smoke_dir/loans.csv"
# A larger CSV with noisy labels, on which explaining a save/load copy of
# the forest (whose RNG streams are reseeded) ranks other subsets than a
# plain run does. Rows come from an integer LCG (every intermediate stays
# below 2^53), not rand(), whose sequence differs between awks.
awk 'BEGIN {
    print "age,job,edu,region,hours,sex,approved";
    x = 12345;
    for (i = 0; i < 2000; i++) {
        x = (x * 75 + 74) % 65537; a = x % 7;
        x = (x * 75 + 74) % 65537; j = x % 4;
        x = (x * 75 + 74) % 65537; e = x % 3;
        x = (x * 75 + 74) % 65537; r = x % 5;
        x = (x * 75 + 74) % 65537; h = 20 + x % 41;
        x = (x * 75 + 74) % 65537; u = x % 100;
        sex = (i % 2 == 0) ? "m" : "f";
        p = 40 + 8 * e + 3 * a - 2 * r;
        if (sex == "m") p += 15;
        if (sex == "f" && j == 1) p -= 30;
        if (h > 45) p += 10;
        print (20 + 7 * a) ",j" j ",e" e ",r" r "," h "," sex "," (u < p);
    }
}' > "$smoke_dir/loans2k.csv"
cli="target/debug/fume-cli"
common="--data $smoke_dir/loans.csv --label approved --positive 1 \
        --sensitive sex --privileged m --trees 10 --depth 5 --seed 3 \
        --support 0.05:0.4 --max-literals 2"
large="--data $smoke_dir/loans2k.csv --label approved --positive 1 \
       --sensitive sex --privileged m --trees 20 --depth 8 --seed 3 \
       --support 0.05:0.3 --max-literals 2"
# fault_smoke NAME FLAGS...: runs an uninterrupted checkpointed run and,
# per fault site, a killed and resumed one, and diffs each JSON report
# against a run without --checkpoint-dir.
fault_smoke() {
    name=$1
    shift
    $cli explain "$@" --json > "$smoke_dir/${name}_plain.json" 2>/dev/null
    grep -q '"top_k":\[{' "$smoke_dir/${name}_plain.json" \
        || { echo "$name: plain run found no subsets" >&2; exit 1; }
    # Site 1 kills the first eval batch, site 2 the first level boundary,
    # site 3 the second atomic write (the initial state precedes it), which
    # is the level-1 boundary's.
    for site in none post-eval post-level mid-checkpoint-write:2; do
        dir="$smoke_dir/${name}_ckpt_$(echo "$site" | tr ':' '_')"
        report="$smoke_dir/${name}_ckpt.json"
        if [ "$site" = none ]; then
            $cli explain "$@" --checkpoint-dir "$dir" --json > "$report" 2>/dev/null
        else
            if FUME_FAULT="$site" $cli explain "$@" --checkpoint-dir "$dir" \
                >/dev/null 2>&1; then
                echo "$name: fault site $site did not kill the run" >&2
                exit 1
            fi
            $cli explain "$@" --checkpoint-dir "$dir" --resume --json \
                > "$report" 2>/dev/null
        fi
        if ! cmp -s "$smoke_dir/${name}_plain.json" "$report"; then
            echo "$name: checkpointed report differs from a plain run (site $site)" >&2
            exit 1
        fi
        echo "    $name, $site: report identical to a plain run"
    done
}
fault_smoke small $common
fault_smoke large $large

echo "==> fume-serve smoke: persistent engine vs one-shot CLI"
# The same dataset/model flags must yield byte-identical canonical
# reports whether answered by the persistent engine or a fresh CLI run —
# and the repeated request must be served from the cross-request cache.
rcli="target/release/fume-cli"
serve="target/release/fume-serve"
"$rcli" explain $common --json > "$smoke_dir/cli_report.json" 2>/dev/null
session="$smoke_dir/serve_session.txt"
: > "$session"
# Each request goes out once the previous one is answered (waiting at
# most 60 s). Sent together, r1 and r2 run at once on the two workers,
# both look the subsets up before either stores them, and the repeat
# can never hit the cache.
wait_for_answers() {
    tries=0
    while [ "$(wc -l < "$session")" -lt "$1" ] && [ "$tries" -lt 600 ]; do
        sleep 0.1
        tries=$((tries + 1))
    done
}
{
    echo '{"op":"explain","id":"r1"}'
    wait_for_answers 1
    echo '{"op":"explain","id":"r2"}'
    wait_for_answers 2
    echo '{"op":"stats","id":"r3"}'
} | "$serve" $common --workers 2 > "$session" 2>/dev/null
lines=$(wc -l < "$session")
if [ "$lines" -ne 3 ]; then
    echo "fume-serve session answered $lines/3 requests" >&2
    cat "$session" >&2
    exit 1
fi
cli_report=$(cat "$smoke_dir/cli_report.json")
matches=$(grep -cF "\"report\":${cli_report}}" "$session" || true)
if [ "$matches" -ne 2 ]; then
    echo "fume-serve reports do not match fume-cli --json ($matches/2 lines)" >&2
    exit 1
fi
hits=$(sed -n 's/.*"cache_hits":\([0-9][0-9]*\).*/\1/p' "$session")
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "repeated request did not hit the cross-request cache" >&2
    grep '"id":"r3"' "$session" >&2 || true
    exit 1
fi
echo "    2 explains byte-identical to the CLI; repeat served from cache (hits=$hits)"

echo "==> fume-serve smoke under FUME_DEEPCHECK=1: zero lock-order cycles"
# The release binary with the runtime detector armed: fume-serve exits
# nonzero at drain if any lock-order cycle was recorded, so a clean exit
# with all requests answered proves the session's lock order consistent.
deep_session="$smoke_dir/serve_session_deepcheck.txt"
printf '%s\n' \
    '{"op":"explain","id":"d1"}' \
    '{"op":"explain","id":"d2"}' \
    '{"op":"stats","id":"d3"}' \
    | FUME_DEEPCHECK=1 "$serve" $common --workers 2 > "$deep_session" 2>/dev/null
deep_lines=$(wc -l < "$deep_session")
if [ "$deep_lines" -ne 3 ]; then
    echo "deepcheck fume-serve session answered $deep_lines/3 requests" >&2
    cat "$deep_session" >&2
    exit 1
fi
deep_matches=$(grep -cF "\"report\":${cli_report}}" "$deep_session" || true)
if [ "$deep_matches" -ne 2 ]; then
    echo "deepcheck fume-serve reports not byte-identical to fume-cli --json ($deep_matches/2)" >&2
    exit 1
fi
echo "    tracked session drained clean; reports byte-identical to the CLI"

echo "==> fume-serve smoke: --checkpoint-root jobs vs one-shot CLI"
# Checkpointing a job must not change its report, on the CSV where
# explaining a reloaded forest would; the job's directory holds only its
# search state, and fume-cli --resume replays it to the same report.
"$rcli" explain $large --json > "$smoke_dir/cli_large.json" 2>/dev/null
ckpt_root="$smoke_dir/serve_ckpt"
ckpt_session="$smoke_dir/serve_session_ckpt.txt"
echo '{"op":"explain","id":"c1"}' \
    | "$serve" $large --workers 1 --checkpoint-root "$ckpt_root" > "$ckpt_session" 2>/dev/null
cli_large=$(cat "$smoke_dir/cli_large.json")
if [ "$(grep -cF "\"report\":${cli_large}}" "$ckpt_session" || true)" -ne 1 ]; then
    echo "fume-serve --checkpoint-root report differs from fume-cli --json" >&2
    exit 1
fi
job_dir=$(ls -d "$ckpt_root"/job-*)
if [ "$(ls "$job_dir")" != "search.ckpt" ]; then
    echo "job checkpoint $job_dir holds more than search.ckpt: $(ls "$job_dir")" >&2
    exit 1
fi
"$rcli" explain $large --checkpoint-dir "$job_dir" --resume --json \
    > "$smoke_dir/resumed_job.json" 2>/dev/null
if ! cmp -s "$smoke_dir/cli_large.json" "$smoke_dir/resumed_job.json"; then
    echo "resuming the served job with fume-cli changed its report" >&2
    exit 1
fi
echo "    checkpointed job byte-identical to the CLI; resumed by fume-cli to the same report"

echo "==> bench smoke: serve throughput (warm cache vs cold)"
cargo bench -q --offline -p fume-bench --bench serve_throughput -- --smoke
serve_speedup=$(sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p' BENCH_serve.json)
if [ -z "$serve_speedup" ]; then
    echo "could not read speedup from BENCH_serve.json" >&2
    exit 1
fi
if ! awk -v s="$serve_speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "warm (cached) serve path slower than cold (speedup ${serve_speedup}x)" >&2
    exit 1
fi
echo "    warm path ${serve_speedup}x over cold"

echo "==> verify: no crates-io dependencies"
if cargo tree --offline --workspace --edges normal,build,dev | grep -v '^\s*$' \
    | grep -vE '\(\*\)$' | grep -E 'v[0-9]' | grep -vE 'fume(-[a-z]+)? v'; then
    echo "unexpected external dependency found" >&2
    exit 1
fi

echo "verify: OK"
