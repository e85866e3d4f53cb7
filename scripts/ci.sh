#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally with one command.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every `cargo test … --test <bin> [-- <filter>…]` the workflows run must
# select at least one test: libtest exits 0 with "0 passed" when a filter
# matches nothing, so a renamed or merged test would silently drop out of
# its job. Lists each binary's tests and fails on an empty binary or a
# filter no test name contains.
check_filters() {
    local status=0 bin filters names f
    while read -r bin filters; do
        names=$(cargo test -q -p precursor --test "$bin" -- --list 2>/dev/null \
            | sed -n 's/: test$//p')
        if [ -z "$names" ]; then
            echo "ci: --test $bin lists no tests" >&2
            status=1
        fi
        for f in $filters; do
            if ! grep -qF -- "$f" <<<"$names"; then
                echo "ci: filter '$f' matches no test of --test $bin" >&2
                status=1
            fi
        done
    done < <(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' .github/workflows/*.yml \
        | grep -o 'cargo test[^|]*--test [a-z_]*[^|]*' \
        | sed -E 's/.*--test ([a-z_]+)( -- (.*))?/\1 \3/; s/[0-9]>&[0-9]//g' \
        | awk '{ printf "%s", $1; for (i = 2; i <= NF; i++) if ($i !~ /^-/) printf " %s", $i; print "" }')
    return $status
}

# Every PRECURSOR_* variable a workflow sets must be read by some .rs file
# under crates/, tests/ or benchmark/: a knob renamed or folded away would
# otherwise leave its job configuring nothing.
check_knobs() {
    local status=0 var
    for var in $(grep -hvE '^\s*#' .github/workflows/*.yml \
        | grep -oE '\bPRECURSOR_[A-Z0-9_]+\s*[:=]' | grep -oE 'PRECURSOR_[A-Z0-9_]+' | sort -u); do
        if ! grep -rqF --include='*.rs' --exclude-dir=target "\"$var\"" crates tests benchmark; then
            echo "ci: a workflow sets $var, which no .rs file reads" >&2
            status=1
        fi
    done
    return $status
}

if [ "${1:-}" = filters ]; then
    echo "== workflow test filters select tests, workflow knobs are read =="
    check_filters
    check_knobs
    exit
fi

# One cluster, one node type, one replay path, one journal attach, one
# histogram, one event queue (a `BinaryHeap`: no timing wheel and no heap
# reference model beside it), one driver entry point, a platform model
# holding only the traffic the store generates (no READ or atomic verbs, no
# SEND/TCP fault hooks, no single-server resource or cycle meter), one way
# to charge a meter (`Meter::event`), one snapshot format (a sealed base
# plus a chain of deltas, no key-hash segments), one way to move a range
# (sealed chain parts, no per-entry migration segments), one durable log
# type (`DurableLog`: no server forwarders to the journal, no hand-kept
# replica cut, no separate anchor argument to recovery), one
# at-most-once window (`server::session::Window`: no second window codec
# beside its own, no recovery-only window update), and one way a cut
# reaches a replica (a cut frame of the parts it lacks, from the primary or
# a repairing peer: no full-journal fallback, no log copied between
# replicas outside a frame), and one untrusted host (`HostPlan` run by one
# `Host`, attached by one `set_host_plan`: no fault or adversary plan and
# injector pair beside it, no faulty-pair constructor, no per-cluster
# migration injector), a table lookup never allocates its key (no
# `get(&key.to_vec())`), and one slot size (the EPC model charges the
# table's own slot: no hand-set model size, and an entry keeps one pool
# offset, no value enum or boxed in-enclave value), and one slot array per
# table (a grow doubles it in place: no second array swapped in beside the
# first), and a client's in-flight ops in one `oid`-ordered deque (no hash
# map of them, no scan of its keys for the oldest or the newest), and a
# client that holds its session only (its op counters are typed fields, no
# registry taps, and it shares its server's cost model, no copy of it):
# the deleted names must not grow back.
# `\bResource\b` spares `NodeResources`; `\bcompact_ship\b` spares the
# `replica.compact_ships` counter; the forwarders match only as calls
# or definitions, so the snapshot header's `journal_epoch`/`journal_chain`
# fields stay legal; the six replica hooks match as words and the four
# link setters as link calls or definitions, so `ReplicaLink::set_mode`,
# the `replica.*` counters and prose about lag or a crash stay legal.
echo "== deleted names stay deleted =="
if grep -rnE "attach_replicated_journal|external_commit|replace_node|recover_staged|recover_with_base|fail_primary_staged|FixedHistogram|DEFAULT_LATENCY_BOUNDS_NS|TimingWheel|RunConfig|epc_fault_locality|post_read|post_fetch_add|post_compare_swap|pair_faulty|new_faulty|take_forced_error|CycleMeter|Distribution::Latest|\bResource\b|counters_mut|charge_client|segment_of|SEGMENTS|snapshot_segments|segments_reused|segments_sealed|reseal_segments|encode_segments|HeapQueue|wheel_equivalence|ship_segment|segment_aad|transfer_seq|export_entry|ShipResult|delta_reshipped|\b(journal_epoch|journal_last_seq|journal_durable|journal_stats|journal_chain|journal_base_seq|journal_cut|journal_trimmed_bytes|journal_durable_end)\(|recover_from|replica_journal_len|encode_session|decode_session|replay_window|replica_needs_full|needs_full|full_catchup_fallbacks|falls_back_to_full_journal|\bcompact_ship\b|\b(FaultPlan|FaultInjector|AdversaryPlan|AdversaryInjector|set_fault_plan|set_adversary_plan|set_migrate_fault_plan|fault_log|adversary_log|swap_faults)\b|get\(&key\.to_vec\(\)\)|\b(lag_replica|partition_replica|crash_replica|heal_replica|rollback_replica|tamper_replica)\b|link\.(lag|partition|crash|heal)\(|fn (lag|partition|crash|heal)\(|\b(MODEL_SLOT_BYTES|ValueStorage|InEnclave)\b|mem::replace\(&mut self\.slots|\bHashMap<u64, Pending>|\bpending\.keys\(\)|obs\.inc\("client\.|server\.cost\(\)\.clone\(\)" \
    crates tests examples; then
    echo "ci: a deleted name reappeared (see CHANGES.md)" >&2
    exit 1
fi

# A meter charge is a priced event: cycles become time inside `precursor-sim`
# (`Meter::event`), and only the driver's replay converts cycles itself.
echo "== cycles become time only in sim and the replay =="
if grep -rnE "server_time\(|cycles_to_nanos\(" crates/*/src \
    | grep -vE "^crates/sim/src/|^crates/ycsb/src/driver\.rs:"; then
    echo "ci: a charge converts cycles outside Meter::event (lines above)" >&2
    exit 1
fi

# The crypto crate's x86 kernel module is the one place that may opt out of
# the safe subset, besides the module that holds the figures runner's
# counting global allocator (a `GlobalAlloc` is an unsafe trait); every
# crate forbids it outright.
echo "== unsafe stays fenced =="
fence_ok=1
if grep -rn unsafe crates \
    | grep -v '^crates/crypto/src/x86\.rs:' \
    | grep -v '^crates/bench/benches/counting_alloc/mod\.rs:' \
    | grep -vE '^crates/[a-z]+/src/lib\.rs:[0-9]+:#!\[forbid\(unsafe_code\)\]$' \
    | grep -vE '^crates/crypto/src/lib\.rs:[0-9]+:#!\[deny\((unsafe_code|clippy::undocumented_unsafe_blocks)\)\]$'; then
    echo "ci: unsafe outside crates/crypto/src/x86.rs (lines above)" >&2
    fence_ok=0
fi
for lib in crates/*/src/lib.rs; do
    [ "$lib" = crates/crypto/src/lib.rs ] && continue
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "ci: $lib lost #![forbid(unsafe_code)]" >&2
        fence_ok=0
    fi
done
[ "$fence_ok" = 1 ] || exit 1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release --workspace

# The microbench sections the op path's O(1) structures, the rings and its
# control crypto are timed by (the metric taps' slot cache, the RNIC LRU,
# dense and page-sparse ring push + pop, keyed GCM, the MAC-chain step and a
# journal append): seconds, and they keep compiling and running.
echo "== microbench smoke (obs, nic, ring, crypto) =="
cargo bench -p precursor-bench --bench microbench -- obs nic ring crypto

echo "== cargo test =="
cargo test --workspace -q

# Release codegen of the intrinsics kernels differs from debug: the rust
# guide asks for a release test run whenever that code changes.
echo "== cargo test --release -p precursor-crypto =="
cargo test --release -q -p precursor-crypto

echo "== workflow test filters select tests, workflow knobs are read =="
check_filters
check_knobs

# benchmark/ is a workspace of its own, so nothing above compiles it: build
# and run it at smoke scale so a crate API change cannot break it unnoticed.
echo "== benchmark smoke (--quick) =="
cargo run --release --manifest-path benchmark/Cargo.toml -- --quick

# Every figure but fig6-scale (wall-clock columns) regenerates its committed
# CSV byte for byte, the trajectory's regression points included, and each
# fails on a row outside its paper tolerance or a failed shape check.
echo "== figures regenerate bench_results/ =="
cargo bench -p precursor-bench --bench figures -- \
    fig1 fig4 fig5 fig6a fig6b fig7 fig8 fig9 table1 ablation trajectory
git diff --exit-code -- bench_results/

echo "ci: all green"
