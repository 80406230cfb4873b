#!/usr/bin/env sh
# Repo verification: formatting, lints, the full test suite, and a quick
# end-to-end pass of the `suite` executor (including the thread-count
# byte-identity guarantee). Run from the repo root:
#
#   sh scripts/verify.sh
#
# Builds are offline (--offline): the workspace vendors shims for its few
# external dev-dependencies, so no network access is required.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors; clippy.toml's bans, workspace lints)"
cargo clippy --offline --workspace --all-targets --color never -- -D warnings \
    2>"$tmp/clippy.log" || { cat "$tmp/clippy.log" >&2; exit 1; }
cat "$tmp/clippy.log" >&2

echo "== no clippy.toml entry is stale (clippy only warns when a path resolves to nothing)"
if grep 'does not refer to' "$tmp/clippy.log"; then
    echo "verify: a clippy.toml ban names nothing; fix or delete the entry" >&2
    exit 1
fi

echo "== every #[allow] states a reason (allow_attributes_without_reason accepts an empty one)"
if grep -rnE --include='*.rs' 'reason *= *"[[:space:]]*"' crates tests examples; then
    echo "verify: an #[allow] has an empty reason" >&2
    exit 1
fi

echo "== rustdoc (warnings are errors: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --keep-going

echo "== cargo build --release"
cargo build --offline --release

echo "== every example runs to completion"
for ex in quickstart attack_lab capacity_planning datacenter_consolidation; do
    cargo run --offline --release -q -p jumanji --example "$ex" >"$tmp/example_$ex.txt"
done

echo "== benchmark probe still compiles against the crates' API"
# Reads perfbench/ only; --locked fails rather than rewrite its Cargo.lock.
cargo check --offline --locked --manifest-path perfbench/probe/Cargo.toml \
    --target-dir target/probe

echo "== cargo test --release (gated tests on: suite_golden's full fig13/fig14 matrix, render_purity's every figure, key_props' paper-scale key identity)"
# The workspace run includes the golden_trace and golden_analytic fixtures.
JUMANJI_SUITE_GOLDEN=1 cargo test --offline --release --workspace

echo "== perfbench helper unit tests (writes nothing under perfbench/)"
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench

echo "== output is byte-identical at --threads 1 (the serial reference) and 4"
for t in 1 4; do
    ./target/release/suite --figures fig13 --mixes 2 --threads "$t" \
        --out "$tmp/t$t" 2>/dev/null
    ./target/release/suite --figures validate,fig02 --threads "$t" \
        --out "$tmp/t$t" 2>/dev/null
done
for f in fig13 validate fig02; do
    cmp "$tmp/t1/$f.tsv" "$tmp/t4/$f.tsv"
done

echo "== suite dedups cells across figures (fig14 plans fig13's runs)"
./target/release/suite --figures fig13,fig14 --mixes 2 --threads 1 \
    --out "$tmp/suite_t1" 2>"$tmp/suite_t1.log"
# `[suite] sched: N nodes (P planned runs -> U unique, …)`: U < P.
set -- $(sed -n 's/^\[suite\] sched: .*(\([0-9]*\) planned runs -> \([0-9]*\) unique.*/\1 \2/p' \
    "$tmp/suite_t1.log")
[ "$#" -eq 2 ]
[ "$2" -lt "$1" ]

echo "== scheduled suite is thread-count-invariant"
sched_figs=fig05,fig09,fig13,fig14,fig15,fig16,fig17,fig18,sensitivity,ablation
./target/release/suite --figures "$sched_figs" --mixes 2 --threads 1 \
    --out "$tmp/sched_t1" 2>/dev/null
./target/release/suite --figures "$sched_figs" --mixes 2 --threads 4 \
    --out "$tmp/sched_t4" 2>"$tmp/sched_t4.log"
for f in fig05 fig09 fig13 fig14 fig15 fig16 fig17 fig18 sensitivity ablation; do
    cmp "$tmp/sched_t1/$f.tsv" "$tmp/sched_t4/$f.tsv"
done
grep -q '\[suite\] sched:' "$tmp/sched_t4.log"

echo "== a second process renders the same bytes (no per-process state in the output)"
./target/release/suite --figures fig13,fig14 --mixes 2 --threads 1 \
    --out "$tmp/suite_again" 2>/dev/null
cmp "$tmp/suite_again/fig13.tsv" "$tmp/suite_t1/fig13.tsv"
cmp "$tmp/suite_again/fig14.tsv" "$tmp/suite_t1/fig14.tsv"

echo "== warm disk cache is byte-identical to cold and to a store-less run (thirteen figures)"
disk_figs=fig04,fig05,fig08,fig09,fig11,fig12,fig13,fig14,fig15,fig16,fig17,sensitivity,ablation
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 4 \
    --cache-dir "$tmp/store" --out "$tmp/disk_cold" 2>"$tmp/disk_cold.log"
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 4 \
    --cache-dir "$tmp/store" --out "$tmp/disk_warm" 2>"$tmp/disk_warm.log"
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 4 \
    --out "$tmp/disk_nc" 2>/dev/null
for f in fig04 fig05 fig08 fig09 fig11 fig12 fig13 fig14 fig15 fig16 fig17 \
         sensitivity ablation; do
    cmp "$tmp/disk_cold/$f.tsv" "$tmp/disk_warm/$f.tsv"
    cmp "$tmp/disk_cold/$f.tsv" "$tmp/disk_nc/$f.tsv"
done

echo "== a healthy store warns about nothing (no failed write, no memory-only fallback)"
for log in "$tmp/disk_cold.log" "$tmp/disk_warm.log"; do
    if grep 'warning:' "$log"; then
        echo "verify: $log has a warning" >&2
        exit 1
    fi
done

echo "== warm suite run reports disk hits, zero computed runs and scenarios, no experiment built"
grep -Eq '\[suite\] disk cache: [1-9][0-9]* hits' "$tmp/disk_warm.log"
# Building an experiment reads (or computes) its ratio hulls.
grep -Eq 'hulls: 0 computed, 0 reused' "$tmp/disk_warm.log"
grep -Eq '\[suite\] sched: 0 runs computed, [1-9][0-9]* served from disk' \
    "$tmp/disk_warm.log"
grep -Eq '\[suite\] sched: 0 scenario cells computed, 4 served from disk' \
    "$tmp/disk_warm.log"
grep -Eq '\[suite\] sched: 4 scenario cells computed, 0 served from disk' \
    "$tmp/disk_cold.log"
grep -Eq '\[suite\] disk cache: 0 hits' "$tmp/disk_cold.log"

echo "== disk counters count cells only: N misses and writes cold, N hits warm"
# N = the cold run's three `[suite] sched: C <kind> computed, …` counts.
set -- $(sed -n 's/^\[suite\] sched: \([0-9]*\) [a-z ]*computed, .*/\1/p' \
    "$tmp/disk_cold.log")
[ "$#" -eq 3 ]
n=$(($1 + $2 + $3))
[ "$n" -gt 0 ]
grep -q "^\[suite\] disk cache: 0 hits, $n misses, $n writes," "$tmp/disk_cold.log"
grep -q "^\[suite\] disk cache: $n hits, 0 misses, 0 writes," "$tmp/disk_warm.log"

# Asserts that store $1 holds one segment per process whose log among
# $2… reports a write, and nothing else: no temp file, no directory.
store_holds_one_segment_per_writer() {
    store=$1
    shift
    writers=$(grep -l '^\[suite\] disk cache: [0-9]* hits, [0-9]* misses, [1-9]' "$@" | wc -l)
    [ "$writers" -ge 1 ]
    [ "$(find "$store" -mindepth 1 -name '*.seg' -type f | wc -l)" -eq "$writers" ]
    [ "$(find "$store" -mindepth 1 ! -name '*.seg' | wc -l)" -eq 0 ]
}

echo "== a cold run leaves one segment in the store, and the warm run none more"
store_holds_one_segment_per_writer "$tmp/store" "$tmp/disk_cold.log" "$tmp/disk_warm.log"

echo "== two processes started together on one fresh store render store-less bytes"
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 2 \
    --cache-dir "$tmp/shared" --out "$tmp/shared_a" 2>"$tmp/shared_a.log" &
pid_a=$!
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 2 \
    --cache-dir "$tmp/shared" --out "$tmp/shared_b" 2>"$tmp/shared_b.log" &
pid_b=$!
wait "$pid_a"
wait "$pid_b"
for f in fig04 fig05 fig08 fig09 fig11 fig12 fig13 fig14 fig15 fig16 fig17 \
         sensitivity ablation; do
    cmp "$tmp/shared_a/$f.tsv" "$tmp/disk_nc/$f.tsv"
    cmp "$tmp/shared_b/$f.tsv" "$tmp/disk_nc/$f.tsv"
done
store_holds_one_segment_per_writer "$tmp/shared" "$tmp/shared_a.log" "$tmp/shared_b.log"

echo "== a third run on that store is fully warm"
./target/release/suite --figures "$disk_figs" --mixes 2 --threads 2 \
    --cache-dir "$tmp/shared" --out "$tmp/shared_c" 2>"$tmp/shared_c.log"
grep -q '^\[suite\] disk cache: [1-9][0-9]* hits, 0 misses, 0 writes,' "$tmp/shared_c.log"
for log in "$tmp/shared_a.log" "$tmp/shared_b.log" "$tmp/shared_c.log"; do
    if grep 'warning:' "$log"; then
        echo "verify: $log has a warning" >&2
        exit 1
    fi
done

echo "== detailed cells: cold/warm/store-less suite runs are byte-identical"
# Equal --accesses across both figures so validate's mix-0 cells dedup
# against fig02's in the work graph.
detail_figs=fig02,validate
detail_acc=60000
./target/release/suite --figures "$detail_figs" --mixes 2 --accesses "$detail_acc" \
    --threads 4 --cache-dir "$tmp/dstore" --out "$tmp/detail_cold" \
    2>"$tmp/detail_cold.log"
./target/release/suite --figures "$detail_figs" --mixes 2 --accesses "$detail_acc" \
    --threads 4 --cache-dir "$tmp/dstore" --out "$tmp/detail_warm" \
    2>"$tmp/detail_warm.log"
./target/release/suite --figures "$detail_figs" --mixes 2 --accesses "$detail_acc" \
    --threads 4 --out "$tmp/detail_nc" 2>/dev/null
for f in fig02 validate; do
    cmp "$tmp/detail_cold/$f.tsv" "$tmp/detail_warm/$f.tsv"
    cmp "$tmp/detail_cold/$f.tsv" "$tmp/detail_nc/$f.tsv"
done

echo "== warm run serves every detail cell from disk, cold computes them"
grep -Eq '\[suite\] sched: [1-9][0-9]* detail cells computed, 0 served from disk' \
    "$tmp/detail_cold.log"
grep -Eq '\[suite\] sched: 0 detail cells computed, [1-9][0-9]* served from disk' \
    "$tmp/detail_warm.log"

echo "== the store holds no memoized placements"
[ ! -e "$tmp/dstore/allocs" ]

echo "== every figure renders at --mixes 1 (one suite run, well-formed TSVs)"
./target/release/suite --figures all --mixes 1 --accesses 2000 \
    --out "$tmp/smoke" 2>/dev/null
for fig in fig02 fig04 fig05 fig08 fig09 fig11 fig12 fig13 fig14 fig15 \
           fig16 fig17 fig18 table2 table3 ablation sensitivity validate; do
    f="$tmp/smoke/$fig.tsv"
    # A `#` header, a trailing newline, at least three lines.
    head -c 1 "$f" | grep -q '#'
    [ -z "$(tail -c 1 "$f")" ]
    [ "$(wc -l <"$f")" -ge 3 ]
done

echo "== row counts do not depend on --mixes (validate: 21 lines per design and mix)"
./target/release/suite --figures all --mixes 3 --accesses 2000 \
    --out "$tmp/smoke3" 2>/dev/null
for fig in fig02 fig04 fig05 fig08 fig09 fig11 fig12 fig13 fig14 fig15 \
           fig16 fig17 fig18 table2 table3 ablation sensitivity validate; do
    one=$(wc -l <"$tmp/smoke/$fig.tsv")
    three=$(wc -l <"$tmp/smoke3/$fig.tsv")
    want=$one
    # validate: 2 more mixes x 2 designs x (20 app rows + 1 isolation line).
    [ "$fig" = validate ] && want=$((one + 2 * 2 * 21))
    if [ "$three" -ne "$want" ]; then
        echo "verify: $fig.tsv has $three lines at --mixes 3, want $want" >&2
        exit 1
    fi
done

echo "== every figure is byte-identical to the pinned golden TSVs"
# results/ holds every figure at --mixes 12, except validate at --mixes 4.
./target/release/suite --figures all --mixes 12 --out "$tmp/golden" 2>/dev/null
./target/release/suite --figures validate --mixes 4 --out "$tmp/golden_v" 2>/dev/null
for f in results/*.tsv; do
    name="$(basename "$f")"
    if [ "$name" = validate.tsv ]; then
        cmp "$tmp/golden_v/$name" "$f"
    else
        cmp "$tmp/golden/$name" "$f"
    fi
done

echo "== --trace emits controller and scheduler events as JSONL"
./target/release/suite --figures fig05 --trace "$tmp/trace.jsonl" >/dev/null 2>&1
grep -q '"event":"controller"' "$tmp/trace.jsonl"
grep -q '"event":"run_summary"' "$tmp/trace.jsonl"
grep -q '"event":"sched_summary"' "$tmp/trace.jsonl"
grep -q '"event":"worker_span"' "$tmp/trace.jsonl"

echo "verify: OK"
