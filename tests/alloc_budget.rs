//! The op path's allocation budget, counted by this binary's global
//! allocator: after a warm-up, a sweep of `PrecursorServer::poll` that
//! serves a get, a put or a delete allocates nothing — plain and
//! journaled, on one shard and on four, the group-commit flush and the
//! gated reply's release included, and a put of a new key of at most 22 B,
//! which the table stores inside its slot, too, with its value in the
//! enclave's own pool when small values are inlined — and a whole op through
//! `PrecursorBackend`, counting the driver's own calls, allocates at most
//! twice. An idle pump of a healthy replica group allocates nothing.
//!
//! Two allocations are named and allowed. The journal's durable stream is
//! the one buffer a sweep may still grow: it is the modelled file, and it
//! doubles as it fills. A journaled sweep that allocates must therefore
//! have made exactly one allocation, sized for the whole stream. And a
//! page-sparse ring keeps one released page as its spare: when one
//! zeroing releases two pages (a record that crosses a page end and ends
//! on the next), the second is freed, and the push that next needs a page
//! beyond the spare allocates one. The counter tells these page
//! allocations apart; a sweep's must match its reply ring's growth
//! exactly, and they are a handful in a run.
//!
//! The allocator also keeps each thread's live bytes — allocated less freed
//! — and their peak. When the enclave table doubles, the sweep that grows
//! it holds the new slot array but never the old one beside it: its peak
//! stays within the bytes live before, less the old array, plus the new
//! one, a wrapping cluster's side `Vec` and the sweep's own bytes. And a
//! session's bulk load holds about one sweep of puts in flight, so what
//! the build keeps does not grow with the request ring.
//!
//! Counts are per thread, so the tests of this binary may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use precursor::backend::{KvCompleted, KvOp, KvOpReport, KvStatus, PrecursorBackend, TrustedKv};
use precursor::server::HOST_SLOT_BYTES;
use precursor::{
    CompactOutcome, Config, GroupCommitPolicy, PrecursorClient, PrecursorServer, ReplicaGroup,
};
use precursor_rdma::mr::Memory;
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;
use precursor_storage::ring::RingStore;
use precursor_storage::sparse::PAGE_BYTES;
use precursor_ycsb::driver::{SessionParams, SystemKind};
use precursor_ycsb::workload::{key_bytes, value_bytes_into, Distribution, WorkloadSpec};

struct Counting;

thread_local! {
    // Allocations (and reallocations) on this thread other than ring pages,
    // the size of the last one, and the ring pages allocated.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
    static PAGES: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated less bytes freed on this thread, and their peak.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the thread's own teardown may allocate after its locals
    // are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LAST_SIZE.try_with(|s| s.set(size));
}

// `delta` bytes more (or fewer) live on this thread.
fn live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // A page-sparse ring's page: nothing else on the op path asks for
        // zeroed bytes of that size and alignment, and a sweep's count is
        // checked against its reply ring's growth.
        if layout.size() == PAGE_BYTES && layout.align() == 1 {
            let _ = PAGES.try_with(|n| n.set(n.get() + 1));
        } else {
            note(layout.size());
        }
        live(layout.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // Counted as its net change: the system allocator remaps a large
        // block's pages to resize it rather than holding two copies.
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What one counted call allocated on this thread.
struct Counted<R> {
    /// Allocations other than ring pages.
    allocs: u64,
    /// Size of the last of them.
    last: usize,
    /// Ring pages allocated.
    pages: u64,
    /// The most bytes live at once, above those live at the call.
    peak: i64,
    /// The bytes live after the call, above those live at the call.
    kept: i64,
    out: R,
}

fn counted<R>(f: impl FnOnce() -> R) -> Counted<R> {
    let (allocs, pages) = (ALLOCS.with(Cell::get), PAGES.with(Cell::get));
    let live = LIVE.with(Cell::get);
    let peak = PEAK.with(|peak| peak.replace(live));
    let out = f();
    let peak_within = PEAK.with(|within| within.replace(within.get().max(peak)));
    Counted {
        allocs: ALLOCS.with(Cell::get) - allocs,
        last: LAST_SIZE.with(Cell::get),
        pages: PAGES.with(Cell::get) - pages,
        peak: peak_within - live,
        kept: LIVE.with(Cell::get) - live,
        out,
    }
}

const KEYS: u64 = 256;
const WARMUP_ROUNDS: u64 = 64;
const ROUNDS: u64 = 256;

fn value(id: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::new();
    value_bytes_into(&mut v, id, version, 32);
    v
}

/// One server with one client, `KEYS` keys loaded, journaled with a group
/// commit per sweep when `journaled`.
struct Rig {
    server: PrecursorServer,
    client: PrecursorClient,
    // The client's reply ring, which the server's sweeps write into.
    reply_ring: Memory<RingStore>,
}

impl Rig {
    fn new(shards: usize, journaled: bool) -> Rig {
        let config = Config {
            shards,
            ..Config::default()
        };
        Rig::with_config(config, journaled)
    }

    fn with_config(config: Config, journaled: bool) -> Rig {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(config, &cost);
        if journaled {
            // Flushed at every sweep's end: each mutation's reply is held by
            // the gate until then.
            let policy = GroupCommitPolicy::batched(32, 0);
            server.attach_journal(policy, &mut MonotonicCounter::new());
        }
        let bundle = server.add_client([11; 16]).expect("connect");
        let reply_ring = bundle.reply_ring.clone();
        let cost = Arc::clone(server.cost());
        let mut client = PrecursorClient::from_bundle(bundle, cost, SimRng::seed_from(11));
        for id in 0..KEYS {
            client
                .put_sync(&mut server, &key_bytes(id), &value(id, 0))
                .expect("load");
        }
        Rig {
            server,
            client,
            reply_ring,
        }
    }

    /// Sends `op` on key `id`, counts the sweep that serves it, and
    /// completes it. Returns the sweep's allocations beyond `expected` —
    /// checked, unless `warm`, to be none or the journal's one growth —
    /// and the reply-ring pages it allocated, checked always.
    fn swept(&mut self, (op, id): (KvOp, u64), expected: u64, warm: bool) -> (u64, u64) {
        let Rig {
            server,
            client,
            reply_ring,
        } = self;
        let key = key_bytes(id);
        let oid = match op {
            KvOp::Get => client.get(&key),
            KvOp::Put => client.put(&key, &value(id, 1)),
            KvOp::Delete => client.delete(&key),
        }
        .expect("send");
        let resident = reply_ring.resident_bytes();
        let sweep = counted(|| server.poll());
        assert_eq!(sweep.out, 1);
        // A reply that needs a ring page the ring has no spare for
        // allocates it: the ring's resident pages grow by exactly the pages
        // allocated, and stay within the two its one record in flight and
        // its one spare take.
        let grown = reply_ring.resident_bytes() - resident;
        assert_eq!(
            sweep.pages * PAGE_BYTES as u64,
            grown as u64,
            "{op:?}: {} pages allocated, the reply ring grew by {grown} B",
            sweep.pages
        );
        assert!(reply_ring.resident_bytes() <= 2 * PAGE_BYTES);
        let allocs = sweep.allocs.checked_sub(expected).unwrap_or_else(|| {
            let allocs = sweep.allocs;
            assert!(warm, "{op:?}: {allocs} allocations, {expected} expected");
            0
        });
        if allocs > 0 && !warm {
            let durable = server.journal().map_or(0, |j| j.durable().len());
            let last = sweep.last;
            assert!(
                allocs == 1 && last >= durable && durable > 0,
                "{op:?}: {allocs} allocations in the sweep beyond {expected}, the last \
                 of {last} B (durable stream {durable} B)"
            );
        }
        client.poll_replies();
        let done = client.take_completed(oid).expect("completed");
        assert!(done.error.is_none(), "{op:?} failed: {done:?}");
        server.drain_reports().for_each(drop);
        (allocs, sweep.pages)
    }
}

fn sweeps_allocate_nothing(shards: usize, journaled: bool) {
    let mut rig = Rig::new(shards, journaled);
    let (mut grown, mut pages) = (0, 0);
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        // A get and an overwrite of one key, a delete of another, and that
        // key put back: a new key, which the table copies into its slot,
        // its value into the pool slot the delete freed.
        let id = round * 7 % KEYS;
        let gone = (id + KEYS / 2) % KEYS;
        let warm = round < WARMUP_ROUNDS;
        for (op, expected) in [
            ((KvOp::Get, id), 0),
            ((KvOp::Put, id), 0),
            ((KvOp::Delete, gone), 0),
            ((KvOp::Put, gone), 0),
        ] {
            let (allocs, ring_pages) = rig.swept(op, expected, warm);
            if !warm {
                grown += allocs;
                pages += ring_pages;
            }
        }
    }
    if journaled {
        // The stream's growths: one per doubling, a handful in a run.
        assert!(grown <= 2, "{grown} growths of the durable stream");
    } else {
        assert_eq!(grown, 0);
    }
    assert!(pages <= ROUNDS / 32, "{pages} reply-ring pages");
}

#[test]
fn a_sweep_allocates_nothing_on_one_shard() {
    sweeps_allocate_nothing(1, false);
}

#[test]
fn a_sweep_allocates_nothing_on_four_shards() {
    sweeps_allocate_nothing(4, false);
}

#[test]
fn a_journaled_sweep_allocates_nothing_on_one_shard() {
    sweeps_allocate_nothing(1, true);
}

#[test]
fn a_journaled_sweep_allocates_nothing_on_four_shards() {
    sweeps_allocate_nothing(4, true);
}

/// A whole op through the backend, the way the YCSB driver runs one:
/// submit, one sweep, the server's report, the client's replies and
/// completion, into buffers kept across ops. Returns the op's allocations.
struct Driver {
    backend: PrecursorBackend,
    value: Vec<u8>,
    reports: Vec<KvOpReport>,
    completed: Vec<KvCompleted>,
}

impl Driver {
    fn new(journaled: bool) -> Driver {
        let mut backend = PrecursorBackend::new(Config::default(), &CostModel::default());
        if journaled {
            backend.enable_durability(GroupCommitPolicy::batched(32, 0));
        }
        backend.connect(3).expect("connect");
        let mut driver = Driver {
            backend,
            value: Vec::new(),
            reports: Vec::new(),
            completed: Vec::new(),
        };
        for id in 0..KEYS {
            driver.op(KvOp::Put, id, 0);
        }
        driver
    }

    /// Runs one op; returns its allocations other than ring pages, and the
    /// ring pages it allocated.
    fn op(&mut self, op: KvOp, id: u64, version: u64) -> (u64, u64) {
        let whole = counted(|| {
            let key = key_bytes(id);
            let sut: &mut dyn TrustedKv = &mut self.backend;
            sut.take_client_meter(0);
            if op == KvOp::Put {
                value_bytes_into(&mut self.value, id, version, 32);
            }
            sut.submit(0, op, &key, &self.value).expect("submit");
            sut.take_client_meter(0);
            sut.poll();
            self.reports.clear();
            sut.take_reports_into(&mut self.reports);
            sut.poll_replies(0);
            self.completed.clear();
            sut.take_completed_into(0, &mut self.completed);
            sut.take_client_meter(0);
        });
        assert_eq!(self.reports.len(), 1);
        assert!(
            matches!(self.completed.as_slice(), [done] if done.status == KvStatus::Ok),
            "{op:?} {id}: {:?}",
            self.completed
        );
        (whole.allocs, whole.pages)
    }
}

fn whole_ops_stay_in_budget(journaled: bool) {
    let mut driver = Driver::new(journaled);
    let (mut gets, mut puts, mut deletes, mut pages) = (0, 0, 0, 0);
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        let id = round * 13 % KEYS;
        let gone = (id + KEYS / 2) % KEYS;
        let counts = [
            driver.op(KvOp::Get, id, 0),
            driver.op(KvOp::Put, id, round + 1),
            driver.op(KvOp::Delete, gone, 0),
            driver.op(KvOp::Put, gone, 0),
        ];
        if round >= WARMUP_ROUNDS {
            assert!(
                counts.iter().all(|&(n, p)| n + p <= 2),
                "round {round}: {counts:?}"
            );
            gets += counts[0].0;
            puts += counts[1].0 + counts[3].0;
            deletes += counts[2].0;
            pages += counts.iter().map(|&(_, p)| p).sum::<u64>();
        }
    }
    // A get's one allocation is the verified value it hands back; a put
    // (of a new key too) and a delete allocate nothing (a journaled one may
    // grow the durable stream, a handful of times in a run).
    assert_eq!(gets, ROUNDS, "one value per get");
    let growths = if journaled { 2 } else { 0 };
    assert!(puts + deletes <= growths, "{puts} + {deletes}");
    // Ring pages a ring had no spare for (the sweep tests match each to
    // the ring's growth): a handful in a run.
    assert!(pages <= ROUNDS / 32, "{pages} ring pages");
}

#[test]
fn a_new_key_of_at_most_22_bytes_is_stored_without_allocating() {
    // A slot is the key's hash, an inline key of up to 22 B and 56 B of
    // metadata: 88 B, where a `Vec` key took a 128 B slot and a heap chunk
    // beside it.
    const { assert!(HOST_SLOT_BYTES == 88) };
    let mut rig = Rig::new(1, false);
    let Rig { server, client, .. } = &mut rig;
    // New keys of every length up to the longest inline one allocate
    // nothing; one byte longer, the key is the one allocation, of its own
    // length. A first pass warms the sweep's buffers up to the longest
    // frame; the second puts other new keys of the same lengths. The
    // `KEYS` loaded and these few stay far below the growth point of the
    // default 2048-slot table.
    for (pass, first) in [(0, b'a'), (1, b'A')] {
        for len in (1..=24).chain([256]) {
            let key: Vec<u8> = (0..len).map(|i| first + (i % 26) as u8).collect();
            let oid = client.put(&key, &value(len as u64, 0)).expect("send");
            let sweep = counted(|| server.poll());
            assert_eq!(sweep.out, 1);
            client.poll_replies();
            let done = client.take_completed(oid).expect("completed");
            assert!(done.error.is_none(), "put of a {len}-byte key: {done:?}");
            server.drain_reports().for_each(drop);
            if pass == 0 {
                continue;
            }
            let heap = if len <= 22 { (0, 0) } else { (1, len as usize) };
            let allocs = (sweep.allocs, sweep.last * usize::from(sweep.allocs > 0));
            assert_eq!(allocs, heap, "a new {len}-byte key");
        }
    }
}

#[test]
fn a_table_doubling_holds_one_slot_array_at_a_time() {
    // New keys go in one per sweep until the default table's slots pass
    // 85 % load and double. The sweep that doubles them holds the new
    // array of 2C slots but not the old one beside it: the bytes it adds
    // at its peak stay within the C slots the array gains, a side `Vec`
    // for a cluster that wraps the table's end (here up to 64 slots), and
    // the sweep's own bytes — what the sweeps before it added at most (a
    // reply-ring page), and the EPC model's page tables, which may double
    // as the grown region's pages join them (up to 128 B a page).
    const SIDE_SLOTS: usize = 64;
    const PAGE_TABLE_BYTES: u64 = 128;
    let config = Config::default();
    let slots = config.initial_table_slots;
    let mut rig = Rig::with_config(config, false);
    let Rig { server, client, .. } = &mut rig;
    server.drain_reports().for_each(drop);
    // The table doubles when a key would take it above 85 % load.
    let grows_at = slots * 85 / 100 + 1;
    let mut own = 0;
    for id in KEYS..grows_at as u64 {
        let pages = server.sgx_report().working_set_pages;
        let oid = client.put(&key_bytes(id), &value(id, 0)).expect("send");
        let sweep = counted(|| server.poll());
        assert_eq!(sweep.out, 1);
        client.poll_replies();
        let done = client.take_completed(oid).expect("completed");
        assert!(done.error.is_none(), "put {id}: {done:?}");
        server.drain_reports().for_each(drop);
        if server.len() < grows_at {
            own = own.max(sweep.peak);
            continue;
        }
        // The doubling: the modelled table region grew by the C slots.
        let gained = (slots * HOST_SLOT_BYTES) as i64;
        let report = server.sgx_report();
        let grown = report.working_set_pages - pages;
        let page = server.cost().page_bytes;
        assert!(grown * page >= gained as u64, "{grown} pages: no doubling");
        let page_tables = (report.working_set_pages * PAGE_TABLE_BYTES) as i64;
        let bound = gained + (SIDE_SLOTS * HOST_SLOT_BYTES) as i64 + own + page_tables;
        assert!(
            sweep.peak <= bound,
            "the doubling sweep's peak rose {} B, beyond the {gained} B the array gains \
             + a side Vec + {own} B of the sweep's own + {page_tables} B of page tables",
            sweep.peak
        );
        return;
    }
    panic!("the table never doubled");
}

#[test]
fn an_in_enclave_put_of_a_new_key_allocates_nothing() {
    // With small values inlined, a value of at most 56 B is stored in the
    // enclave's own pool. A first pass puts new keys of every inline
    // length, with values of every size class up to 56 B, and deletes
    // them: it grows that pool, its free lists and the sweep's buffers.
    // The second pass puts other new keys of the same lengths into the
    // slots the first freed. The `KEYS` loaded and these few stay far
    // below the growth point of the default 2048-slot table.
    let mut rig = Rig::with_config(Config::with_small_value_inlining(), false);
    let Rig { server, client, .. } = &mut rig;
    let mut val = Vec::new();
    for (pass, first) in [(0, b'a'), (1, b'A')] {
        let keys = (1..=22)
            .map(|len: usize| -> Vec<u8> { (0..len).map(|i| first + (i % 26) as u8).collect() });
        for key in keys.clone() {
            let size = (key.len() * 56).div_ceil(22);
            value_bytes_into(&mut val, key.len() as u64, 0, size);
            let oid = client.put(&key, &val).expect("send");
            let sweep = counted(|| server.poll());
            assert_eq!(sweep.out, 1);
            client.poll_replies();
            let done = client.take_completed(oid).expect("completed");
            assert!(done.error.is_none(), "put of a {size}-byte value: {done:?}");
            server.drain_reports().for_each(drop);
            if pass == 1 {
                let (allocs, last) = (sweep.allocs, sweep.last);
                assert_eq!(allocs, 0, "a {size}-byte value, the last of {last} B");
            }
        }
        if pass == 0 {
            for key in keys {
                client.delete_sync(server, &key).expect("delete");
            }
        }
    }
}

#[test]
fn a_whole_op_through_the_backend_allocates_at_most_twice() {
    whole_ops_stay_in_budget(false);
}

#[test]
fn a_whole_journaled_op_through_the_backend_allocates_at_most_twice() {
    whole_ops_stay_in_budget(true);
}

#[test]
fn a_measured_window_allocates_at_most_twice_per_op() {
    // The driver's own loop, per-window set-up (client states, the event
    // queue, the latency histogram) included.
    let cost = CostModel::default();
    let mut session = SessionParams::new(SystemKind::Precursor)
        .value_size(32)
        .keys(2_000, 2_000)
        .max_clients(8)
        .seed(5)
        .journaled(true)
        .build(&cost);
    let spec = WorkloadSpec {
        read_ratio: 0.5,
        value_size: 32,
        key_count: 2_000,
        distribution: Distribution::Uniform,
    };
    session.measure(&spec, 8, 2_000);
    let ops = 4_000;
    let window = counted(|| session.measure(&spec, 8, ops));
    let allocs = window.allocs + window.pages;
    assert!(allocs <= 2 * ops, "{allocs} allocations for {ops} ops");
}

// Heap bytes one bulk-loaded put holds while it is in flight: its client
// `Pending` (key, payload, ring writes), its slot in client 0's in-flight
// collection, the server's report with its meter, and its completion.
// Measured on a 1 MiB ring whose load kept half the ring in flight, 2 520
// puts of 32 B: 1 344 072 B between the build's peak and what it kept.
const OP_BYTES: i64 = 533;

/// The bulk load keeps one sweep in flight: `SessionParams::build` of a
/// 32 B session of 5 000 keys peaks at most two sweeps' worth of in-flight
/// puts above the bytes it keeps, and a 1 MiB ring's session keeps at most
/// one sweep's worth more than a 64 KiB ring's. Measured: the peak is
/// 78 280 B above what the 1 MiB ring's build keeps, and it keeps 5 924 B
/// more than the 64 KiB one (the larger rings' page index). A window of
/// half the ring (2 520 puts on 1 MiB) read 1 344 072 B and 1 975 596 B:
/// client 0's in-flight map, the server's report buffer and the
/// completions stayed at the burst's size.
#[test]
fn the_bulk_load_holds_one_sweep_of_puts_in_flight() {
    let cost = CostModel::default();
    let build = |ring| {
        counted(|| {
            SessionParams::new(SystemKind::Precursor)
                .value_size(32)
                .keys(5_000, 5_000)
                .max_clients(1)
                .ring_bytes(ring)
                .build(&cost)
        })
    };
    let (wide, narrow) = (build(1 << 20), build(1 << 16));
    let sweep = Config::default().poll_budget_per_client as i64 * OP_BYTES;
    let in_flight = wide.peak - wide.kept;
    assert!(
        in_flight <= 2 * sweep,
        "the load peaked {in_flight} B above what it kept"
    );
    let leftover = wide.kept - narrow.kept;
    assert!(
        leftover <= sweep,
        "a 1 MiB ring's session keeps {leftover} B more than a 64 KiB ring's"
    );
}

#[test]
fn an_idle_pump_of_a_healthy_replica_group_allocates_nothing() {
    idle_pumps_allocate_nothing(false);
    idle_pumps_allocate_nothing(true);
}

// A group of three replicas commits a put per key, with a cut behind them
// when `compact`, and pumps until every replica holds the primary's log
// (and took the cut): then 64 idle pumps allocate nothing — no segment, no
// cut frame is shipped to a replica that holds it.
fn idle_pumps_allocate_nothing(compact: bool) {
    let cost = CostModel::default();
    let policy = GroupCommitPolicy::batched(32, 0);
    let mut group = ReplicaGroup::with_replicas(Config::default(), &cost, 3, policy);
    let bundle = group.primary_mut().add_client([12; 16]).expect("connect");
    let cost = Arc::clone(group.primary().cost());
    let mut client = PrecursorClient::from_bundle(bundle, cost, SimRng::seed_from(12));
    for id in 0..KEYS {
        let oid = client.put(&key_bytes(id), &value(id, 0)).expect("send");
        let done = loop {
            group.pump();
            client.poll_replies();
            if let Some(done) = client.take_completed(oid) {
                break done;
            }
        };
        assert!(done.error.is_none(), "put {id} failed: {done:?}");
    }
    if compact {
        let outcome = group.compact();
        assert!(
            matches!(outcome, CompactOutcome::Compacted { .. }),
            "{outcome:?}"
        );
        group.pump();
    }
    // Every put is committed and every replica holds the primary's log.
    let primary = group.primary();
    let journal = primary.journal().expect("journal attached");
    assert_eq!(primary.journal_committed_seq(), journal.last_seq());
    assert_eq!(journal.log().cut().is_some(), compact);
    for i in 0..group.replica_count() {
        assert_eq!(group.replica_log(i), journal.log(), "replica {i}");
        assert_eq!(group.replica_root(i).is_some(), compact, "replica {i}");
    }
    let idle = counted(|| {
        for _ in 0..64 {
            assert_eq!(group.pump(), 0);
        }
    });
    assert_eq!(
        (idle.allocs, idle.pages),
        (0, 0),
        "compact {compact}: 64 idle pumps allocated, the last of {} B",
        idle.last
    );
}

/// What one more connected client keeps, server side included: its
/// session, not copies of what the fleet shares. `FLEET` clients connect to
/// one server on `wide_fleet`'s 1 KiB rings and four shards, and each
/// completes a put and a get; then one more does the same, counted. 40
/// keeps the 41st clear of the server's per-client `Vec`s doubling (the
/// 33rd client doubles them). It keeps 4 090 B; a client that carried its
/// own cost model, a string-keyed registry for its op counters, room for
/// four ops in flight and request buffers beside the ring WRITE it keeps
/// kept 5 929 B.
#[test]
fn a_connected_client_keeps_its_session_not_copies_of_the_fleets() {
    const FLEET: u64 = 40;
    const KEPT_BOUND: i64 = 5_000;
    let config = Config {
        ring_bytes: 1 << 10,
        max_clients: FLEET as usize + 1,
        ..Config::sharded(4)
    };
    let mut server = PrecursorServer::new(config, &CostModel::default());
    let mut clients = Vec::with_capacity(FLEET as usize + 1);
    let join = |server: &mut PrecursorServer, clients: &mut Vec<PrecursorClient>| {
        let id = clients.len() as u64;
        let mut client = PrecursorClient::connect(server, id).expect("connect");
        let key = key_bytes(id);
        client.put_sync(server, &key, &value(id, 0)).expect("put");
        assert_eq!(client.get_sync(server, &key).expect("get"), value(id, 0));
        server.drain_reports().for_each(drop);
        clients.push(client);
    };
    for _ in 0..FLEET {
        join(&mut server, &mut clients);
    }
    let one_more = counted(|| join(&mut server, &mut clients));
    assert!(
        one_more.kept <= KEPT_BOUND,
        "one more client kept {} B",
        one_more.kept
    );
}
