#!/bin/sh
# The whole CI pipeline; .github/workflows/ci.yml only installs the
# toolchain and calls this script. Run before pushing.
#
#   ./ci.sh        format check, build, the default (smoke) test suite,
#                  clippy, rustdoc, the benchmark package's build +
#                  self-check + unit tests, and the trace smoke
#   ./ci.sh full   the same, with every #[ignore]d heavyweight test: the
#                  full differential matrices, the metamorphic sweep, the
#                  incremental-vs-recompute IVM matrix and the exhaustive
#                  crash-point sweeps (~ a few minutes)
#
# Nothing here times anything: performance is BENCHMARK.json + benchmark/
# (alternating parent/change pairs), not a wall-clock bar in CI.
set -eux

case "${1:-smoke}" in
full) ignored=--include-ignored ;;
smoke) ignored= ;;
*)
    echo "usage: $0 [full]" >&2
    exit 2
    ;;
esac

# Every cargo call below that resolves dependencies runs `--locked`: a
# stale Cargo.lock (workspace or benchmark/) fails here instead of being
# rewritten silently.
cargo fmt --all --check
cargo build --locked --release --workspace
# Tier-1 (ROADMAP) is the root package's tests; every other crate's run
# after it. Tier-1's output goes to a file, not a pipe, so a failing run
# still fails here (POSIX sh has no pipefail), and its totals are printed
# for ROADMAP's tier-1 count.
tier1_log="$(mktemp)"
tier1=0
cargo test --locked -q -- $ignored >"$tier1_log" 2>&1 || tier1=$?
cat "$tier1_log"
awk '/^test result:/ { p += $4; f += $6; i += $8 }
    END { printf "tier-1: %d passed / %d failed / %d ignored\n", p, f, i }' "$tier1_log"
rm -f "$tier1_log"
test "$tier1" -eq 0
cargo test --locked -q --workspace --exclude all-in-one -- $ignored
# `cargo test` compiles the examples but never runs them: run each (toy
# graphs, seconds) so a panicking unwrap in one fails here
for ex in examples/*.rs; do
    cargo run --locked --release -q --example "$(basename "$ex" .rs)"
done
cargo clippy --locked --workspace --all-targets -- -D warnings
# a doc link to an item that was deleted or made private fails here
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --offline

# benchmark package: `benchmark/` is its own workspace, so nothing above
# compiles it. Build it, run its self-check and its unit tests against the
# crates as they are now — an engine signature it names (ExecMode,
# with_exec, execute, optimize_plan, walk_pre_order, join_par, ...) that
# changed must fail here, not in the bench pipeline.
cargo build --locked --release --offline --manifest-path benchmark/Cargo.toml
cargo run --locked --release --offline --quiet --manifest-path benchmark/Cargo.toml -- check
cargo test --locked --offline --manifest-path benchmark/Cargo.toml

# trace smoke: EXPLAIN ANALYZE must print an annotated plan and emit
# schema-valid JSONL (the binary validates and prints "jsonl schema: OK").
repro_bin="$(pwd)/target/release/repro"
trace_dir="$(mktemp -d)"
(cd "$trace_dir" && "$repro_bin" explain pagerank) |
    tee "$trace_dir/explain.out"
grep -q "jsonl schema: OK" "$trace_dir/explain.out"
test -s "$trace_dir/TRACE_pagerank.jsonl"
test -s "$trace_dir/TRACE_pagerank.json"
# under the best profile PageRank's step is one operator: the aggregate
# heading the recursive step must read `fused` (DESIGN §18)
(cd "$trace_dir" && "$repro_bin" explain pagerank --best) |
    tee "$trace_dir/explain_best.out"
grep -A1 -- "-- rec\[0\]" "$trace_dir/explain_best.out" | grep -q " fused)"
rm -rf "$trace_dir"

# paper-experiment smokes over the keyed paths: table4_5 runs the
# duplicate-key check of all four union-by-update implementations, fig10
# postgres_like's sort aggregation with and without indexes (seconds)
"$repro_bin" table4_5 --scale 0.0002
"$repro_bin" fig10 --scale 0.0002

# Tracked size (ROADMAP aim 2): engine + facade source lines, tests in
# those files included — the one number "net lines of code" refers to.
# The per-crate lines under it say where a change put or took lines.
echo "loc: $(git ls-files 'crates/*.rs' 'src/*.rs' | xargs cat | wc -l)"
for c in crates/* src; do
    echo "loc $c: $(git ls-files "$c/*.rs" | xargs cat | wc -l)"
done
# Outside that number, counted the same way: the integration tests and
# the benchmark package.
echo "loc tests: $(git ls-files 'tests/*.rs' | xargs cat | wc -l)"
echo "loc benchmark: $(git ls-files 'benchmark/*.rs' | xargs cat | wc -l)"
