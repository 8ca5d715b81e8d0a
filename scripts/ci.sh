#!/usr/bin/env bash
# Tier-1 gate for the msync workspace. Fully offline: no registry, no
# network. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> xtask lint gate"
cargo run --release -q -p xtask -- lint

echo "==> lint report artifact (LINT_REPORT.json, schema-validated)"
cargo run --release -q -p xtask -- lint --format json > LINT_REPORT.json
cargo run --release -q -p xtask -- check-lint-report LINT_REPORT.json

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark build (outside the workspace; a public-API deletion must not break it)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> benchmark unit tests"
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo doc (a doc link to a deleted public item, or from a public item to a private one, is an error)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --offline -q

echo "==> cargo test -q"
cargo test -q

echo "==> examples (each runs to completion; a panicking example fails the gate)"
for example in quickstart release_upgrade web_mirror tune_protocol custom_transport; do
    cargo run --release -q --example "$example" > /dev/null
done

echo "==> paper tables (exp all == experiments_output.txt; regenerate the archive in the commit that moves a table)"
cargo run --release -q -p msync-bench --bin exp -- all > experiments_output.txt
git diff --exit-code experiments_output.txt

echo "==> network loopback gate (live daemon, 32-client soak with admin scrapes, admission control)"
cargo test --release -q --test net_loopback
test -s ARTIFACT_sessions_scrape.txt || {
    echo "soak did not archive its mid-soak sessions scrape"; exit 1; }

echo "==> live introspection gate (sessions/health verbs, slow-session watchdog)"
cargo test --release -q --test introspection

echo "==> sans-IO engine determinism gate (ManualClock replay of CollectionClientMachine / CollectionServeMachine)"
cargo test --release -q --test engine_machine

echo "==> fault-injection soak (seeded, release; the in-process pump over a faulty virtual link, default retry policy)"
MSYNC_SOAK_SEEDS="${MSYNC_SOAK_SEEDS:-400}" \
    cargo test --release -q --test fault_injection

echo "==> golden trace journal (byte-identical under ManualClock)"
cargo test --release -q --test trace_journal

echo "==> journal schema validation (xtask check-journal, jq-free)"
journal="$(mktemp /tmp/msync-ci-journal.XXXXXX)"
trap 'rm -f "$journal"' EXIT
tree="$(mktemp -d /tmp/msync-ci-tree.XXXXXX)"
trap 'rm -f "$journal"; rm -rf "$tree"' EXIT
mkdir -p "$tree/old" "$tree/new"
printf 'hello msync observability\n%.0s' {1..200} > "$tree/old/a.txt"
{ cat "$tree/old/a.txt"; echo "changed tail"; } > "$tree/new/a.txt"
cp "$tree/old/a.txt" "$tree/new/b.txt"
./target/release/msync sync "$tree/old" "$tree/new" --trace-out "$journal" > /dev/null
cargo run --release -q -p xtask -- check-journal "$journal"

echo "==> chrome trace export (msync trace-export, TRACE_chrome.json)"
./target/release/msync trace-export "$journal" --out TRACE_chrome.json > /dev/null
test -s TRACE_chrome.json

echo "==> live daemon re-sync and scrape (identical tree all unchanged; msync stats -> xtask check-metrics, SCRAPE_metrics.txt, frame-pool, mux and codec families required)"
serve_log="$(mktemp /tmp/msync-ci-serve.XXXXXX)"
./target/release/msync serve "$tree/new" --listen 127.0.0.1:0 --slow-session-ms 30000 \
    > "$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$journal" "$serve_log"; rm -rf "$tree"' EXIT
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on \(.*\) (ctrl-c to stop)$/\1/p' "$serve_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve never reported its address"; cat "$serve_log"; exit 1; }
./target/release/msync sync "$tree/old" --remote "$addr" > /dev/null
# An identical tree must settle every file on its fingerprint. A client
# and daemon that disagree on fingerprints still end byte-exact, through
# fallbacks, so only this count shows it.
resync="$(./target/release/msync sync "$tree/new" --remote "$addr")"
grep -qF 'unchanged 2 · changed 0 · created 0 · deleted 0' <<< "$resync" || {
    echo "an identical tree did not re-sync as all unchanged:"; echo "$resync"; exit 1; }
./target/release/msync stats --remote "$addr" > SCRAPE_metrics.txt
cargo run --release -q -p xtask -- check-metrics SCRAPE_metrics.txt --require msync_frame_pool_ --require msync_mux_ --require msync_codec_
kill "$serve_pid" 2>/dev/null || true

echo "==> tracing overhead gate (< 5%, BENCH_trace_overhead.json)"
MSYNC_BENCH=1 cargo test --release -q --test trace_overhead

echo "==> daemon 1k-session soak (bytes-copied + peak-RSS ceilings, BENCH_daemon_concurrency.json)"
MSYNC_BENCH=1 cargo test --release -q --test daemon_bench
test -s BENCH_daemon_concurrency.json || {
    echo "daemon soak did not archive its measurement"; exit 1; }

echo "==> one-large-file ceiling (4 MiB sync: RSS growth < 64 MiB, < 5 s, BENCH_bigfile_ceiling.json)"
MSYNC_BENCH=1 cargo test --release -q --test bigfile_ceiling
test -s BENCH_bigfile_ceiling.json || {
    echo "bigfile ceiling did not archive its measurement"; exit 1; }

echo "==> match scan speed (first_positions within 1.6x a bare roll over 512 KiB, BENCH_scan.json)"
MSYNC_BENCH=1 cargo test --release -q --test scan_speed
test -s BENCH_scan.json || {
    echo "scan speed gate did not archive its measurement"; exit 1; }

echo "==> crash-rerun byte gate (rerun after kill < restart, warm re-sync = roster only, BENCH_resume.json)"
MSYNC_BENCH=1 cargo test --release -q --test fault_injection resume_bench_gate

echo "==> server hash-cache gate (N warm sessions re-hash zero bytes, BENCH_hash_cache.json)"
MSYNC_BENCH=1 cargo test --release -q --test hash_cache_bench

echo "ci.sh: all gates passed"
