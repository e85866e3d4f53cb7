//! The traced run: the benchmark's own closed loop over `dyn TrustedKv`,
//! one root span `op` per operation with a child span around each call into
//! a layer, a key → version model that checks every get byte for byte, and
//! exact per-op counts from meter and registry deltas.
//!
//! Functionally the driver serialises ops too (submit, one sweep, collect),
//! so the loop walks the same client count round-robin. The same loop with
//! spans off gives the tracing overhead.

use std::path::Path;
use std::time::Instant;

use precursor::backend::{KvOp, KvStatus, PrecursorBackend, TrustedKv};
use precursor::CompactOutcome;
use precursor_sim::meter::MeterCounters;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;
use precursor_ycsb::workload::{key_bytes, value_bytes, OpGenerator, OpKind};

use crate::report::{Metric, Outcome};
use crate::workloads::{Workload, COMPACT_EVERY_POLLS};

/// Operations whose spans are written to the Chrome-trace file; the totals
/// and percentiles cover every op of the window.
const DUMPED_OPS: u32 = 2_000;
/// Windows run with spans on; the fastest one is reported and dumped.
const TRACED_WINDOWS: usize = 3;

const OP: u8 = 0;
const GEN: u8 = 1;
const SUBMIT: u8 = 2;
const POLL: u8 = 3;
const COMPACT: u8 = 4;
const REPLY: u8 = 5;
const SPAN_NAMES: [&str; 6] = [
    "op",
    "ycsb.gen",
    "client.submit",
    "server.poll",
    "server.compact",
    "client.reply",
];

struct Span {
    name: u8,
    /// Index of the operation: the identifier its spans share. Every child
    /// span's parent is the `op` span of the same index.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; a disabled one reads no clock.
struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn record(&mut self, name: u8, op: u32, start_ns: u64) -> u64 {
        let end_ns = self.now();
        if self.enabled {
            self.spans.push(Span {
                name,
                op,
                start_ns,
                end_ns,
            });
        }
        end_ns
    }
}

/// Exact counts over one window, from meters, reports and the enclave.
#[derive(Default)]
struct Counts {
    crypto_bytes: u64,
    tx_bytes: u64,
    rdma_posts: u64,
    compactions: u64,
}

impl Counts {
    fn add(&mut self, meter: &MeterCounters) {
        self.crypto_bytes += meter.crypto_bytes;
        self.tx_bytes += meter.tx_bytes;
        self.rdma_posts += meter.rdma_posts;
    }
}

struct Loop {
    backend: PrecursorBackend,
    generators: Vec<OpGenerator>,
    /// Version last written per key; the load wrote version 0.
    versions: Vec<u64>,
    polls: u64,
    wrong_values: u64,
    not_ok: u64,
}

impl Loop {
    fn new(w: &Workload, seed: u64) -> Loop {
        let cost = CostModel::default();
        let mut backend = w.backend(&cost);
        for c in 0..w.clients {
            backend.connect(seed ^ ((c as u64) << 8)).expect("connect");
        }
        // Load through client 0, draining whenever half the ring is used.
        let frame = 160 + w.value_size + 16;
        let batch = backend.warmup_batch(frame);
        for id in 0..w.keys {
            let value = value_bytes(id, 0, w.value_size);
            backend
                .submit(0, KvOp::Put, &key_bytes(id), &value)
                .expect("load put");
            if (id + 1) % batch as u64 == 0 || id + 1 == w.keys {
                while backend.poll() > 0 {
                    backend.poll_replies(0);
                }
                backend.poll_replies(0);
            }
        }
        let loaded = backend.take_completed(0);
        assert!(
            loaded.len() as u64 == w.keys && loaded.iter().all(|c| c.status == KvStatus::Ok),
            "load failed"
        );
        backend.take_client_meter(0);
        backend.take_reports();
        let generators = (0..w.clients)
            .map(|c| {
                let stream = seed.wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                OpGenerator::new(w.spec(), SimRng::seed_from(stream))
            })
            .collect();
        Loop {
            backend,
            generators,
            versions: vec![0; w.keys as usize],
            polls: 0,
            wrong_values: 0,
            not_ok: 0,
        }
    }

    /// One window of `w.window_ops` closed-loop operations.
    fn window(&mut self, w: &Workload, spans: &mut Spans, counts: &mut Counts) {
        for op in 0..w.window_ops as u32 {
            let c = op as usize % w.clients;
            let t0 = spans.now();
            let (kind, id) = self.generators[c].next_op();
            let key = key_bytes(id);
            let value = match kind {
                OpKind::Read => Vec::new(),
                OpKind::Update => value_bytes(id, self.versions[id as usize] + 1, w.value_size),
            };
            let t1 = spans.record(GEN, op, t0);

            let sut: &mut dyn TrustedKv = &mut self.backend;
            sut.take_client_meter(c);
            let kv_op = match kind {
                OpKind::Read => KvOp::Get,
                OpKind::Update => KvOp::Put,
            };
            sut.submit(c, kv_op, &key, &value).expect("submit");
            let t2 = spans.record(SUBMIT, op, t1);

            sut.poll();
            self.polls += 1;
            let mut t3 = spans.record(POLL, op, t2);

            if w.compacted && self.polls.is_multiple_of(COMPACT_EVERY_POLLS) {
                if matches!(self.backend.compact_now(), CompactOutcome::Compacted { .. }) {
                    counts.compactions += 1;
                }
                t3 = spans.record(COMPACT, op, t3);
            }

            let sut: &mut dyn TrustedKv = &mut self.backend;
            sut.poll_replies(c);
            let done = sut.take_completed(c);
            spans.record(REPLY, op, t3);

            // The check, the meters and the reports are the harness's own
            // work: they stay in the `op` span's self time.
            counts.add(sut.take_client_meter(c).counters());
            for report in sut.take_reports() {
                counts.add(report.meter.counters());
            }
            match done.as_slice() {
                [only] if only.status == KvStatus::Ok => match kind {
                    OpKind::Update => self.versions[id as usize] += 1,
                    OpKind::Read => {
                        let expect = value_bytes(id, self.versions[id as usize], w.value_size);
                        if only.value.as_deref() != Some(&expect[..]) {
                            self.wrong_values += 1;
                        }
                    }
                },
                _ => self.not_ok += 1,
            }
            spans.record(OP, op, t0);
        }
    }
}

/// Per-name totals, per-op self times and the conservation check.
struct SpanSummary {
    total_ns: [u64; 6],
    count: [u64; 6],
    op_self_ns: u64,
    op_ns: Vec<u64>,
    conserved: bool,
}

fn summarise(spans: &[Span], ops: usize) -> SpanSummary {
    let mut s = SpanSummary {
        total_ns: [0; 6],
        count: [0; 6],
        op_self_ns: 0,
        op_ns: Vec::with_capacity(ops),
        conserved: true,
    };
    // Children are recorded before their root, in time order: they must
    // sit inside it, one after the other, for their durations to add up to
    // the part of the root they cover.
    let mut children_ns = 0u64;
    let mut chain: Option<(u64, u64)> = None; // first child's start, last one's end
    for span in spans {
        let dur = span.end_ns - span.start_ns;
        s.total_ns[span.name as usize] += dur;
        s.count[span.name as usize] += 1;
        if span.name == OP {
            let inside =
                chain.is_none_or(|(first, last)| span.start_ns <= first && last <= span.end_ns);
            match dur.checked_sub(children_ns) {
                Some(own) if inside => s.op_self_ns += own,
                _ => s.conserved = false,
            }
            s.op_ns.push(dur);
            children_ns = 0;
            chain = None;
        } else {
            let (first, last) = chain.unwrap_or((span.start_ns, span.start_ns));
            s.conserved &= last <= span.start_ns;
            chain = Some((first, span.end_ns));
            children_ns += dur;
        }
    }
    let children: u64 = s.total_ns[1..].iter().sum();
    s.conserved &= children + s.op_self_ns == s.total_ns[OP as usize];
    s.op_ns.sort_unstable();
    s
}

/// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "[")?;
    let mut first = true;
    for s in spans.iter().take_while(|s| s.op < DUMPED_OPS) {
        let parent = if s.name == OP { "null" } else { "\"op\"" };
        write!(
            out,
            "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
            if first { "" } else { "," },
            SPAN_NAMES[s.name as usize],
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            parent
        )?;
        first = false;
    }
    writeln!(out, "\n]")?;
    out.flush()
}

pub fn run(w: &Workload, seed: u64, trace_path: Option<&Path>) -> Outcome {
    let ops = w.window_ops;
    let mut run = Loop::new(w, seed);

    let timed = |run: &mut Loop, spans: &mut Spans, counts: &mut Counts| {
        let start = Instant::now();
        run.window(w, spans, counts);
        start.elapsed().as_secs_f64()
    };

    // The traced windows sit between two windows with spans off; the first
    // also warms the loop (allocator, table, rings). A shared machine only
    // ever slows a window, so the fastest of each kind is the one reported.
    let mut plain_secs = timed(&mut run, &mut Spans::new(false), &mut Counts::default());

    // The counts are exact, so they come from one fixed window: the first
    // traced one.
    let before = run.backend.metrics();
    let sgx_before = run.backend.sgx_report();
    let rings_before = run.backend.rings_swept();
    let mut counts = Counts::default();
    let mut spans = Spans::new(true);
    let mut traced_secs = timed(&mut run, &mut spans, &mut counts);
    let after = run.backend.metrics();
    let sgx_after = run.backend.sgx_report();
    let rings_swept = run.backend.rings_swept() - rings_before;
    for _ in 1..TRACED_WINDOWS {
        let mut again = Spans::new(true);
        let secs = timed(&mut run, &mut again, &mut Counts::default());
        if secs < traced_secs {
            traced_secs = secs;
            spans = again;
        }
    }

    plain_secs = plain_secs.min(timed(
        &mut run,
        &mut Spans::new(false),
        &mut Counts::default(),
    ));

    let summary = summarise(&spans.spans, ops as usize);
    if let Some(path) = trace_path {
        if let Err(e) = write_trace(path, &spans.spans) {
            println!("{}: cannot write {}: {e}", w.name, path.display());
        }
    }

    let per_op = |ns: u64| ns as f64 / ops as f64;
    let total = |name: u8| summary.total_ns[name as usize];
    let op_at = |q: f64| summary.op_ns[((ops - 1) as f64 * q) as usize] as f64 / 1e3;
    let compacts = summary.count[COMPACT as usize];
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let count = |name, v: f64| Metric::lower(name, "count", v);
    let verify_fail = delta("client.verify_fail");

    let metrics = vec![
        Metric::lower("ycsb.gen_ns_op", "ns", per_op(total(GEN))),
        Metric::lower("client.submit_ns_op", "ns", per_op(total(SUBMIT))),
        Metric::lower("server.poll_ns_op", "ns", per_op(total(POLL))),
        Metric::lower("client.reply_ns_op", "ns", per_op(total(REPLY))),
        Metric::lower("server.compact_ns_op", "ns", per_op(total(COMPACT))),
        Metric::lower(
            "server.compact_ms_each",
            "ms",
            if compacts == 0 {
                0.0
            } else {
                total(COMPACT) as f64 / compacts as f64 / 1e6
            },
        )
        .note(format!("{compacts} compaction spans")),
        Metric::lower("op.self_ns_op", "ns", per_op(summary.op_self_ns))
            .note("harness: value check, meters, reports, clock reads".to_string()),
        Metric::lower("op.host_p50_us", "us", op_at(0.50)).note(format!("{ops} samples")),
        Metric::lower("op.host_p99_us", "us", op_at(0.99)).note(format!("{ops} samples")),
        Metric::lower(
            "trace.overhead_pct",
            "%",
            (traced_secs / plain_secs - 1.0) * 100.0,
        )
        .note(format!(
            "fastest of {TRACED_WINDOWS} traced windows {:.2} kops/s, of 2 with spans off {:.2} kops/s; spans conserve: {}",
            ops as f64 / traced_secs / 1e3,
            ops as f64 / plain_secs / 1e3,
            summary.conserved
        )),
        count(
            "count.crypto_bytes_op",
            counts.crypto_bytes as f64 / ops as f64,
        ),
        count("count.tx_bytes_op", counts.tx_bytes as f64 / ops as f64),
        count("count.rdma_posts_op", counts.rdma_posts as f64 / ops as f64),
        count(
            "count.transitions_op",
            (sgx_after.transitions - sgx_before.transitions) as f64 / ops as f64,
        ),
        count("count.rings_swept_op", rings_swept as f64 / ops as f64),
        count(
            "count.credit_writes_op",
            delta("server.credit_writes") / ops as f64,
        ),
        count(
            "count.journal_bytes_op",
            delta("journal.bytes_sealed") / ops as f64,
        ),
        count(
            "count.journal_flushes_op",
            delta("journal.group_commit_flushes") / ops as f64,
        ),
        count("count.compactions", counts.compactions as f64),
        count(
            "count.epc_faults",
            (sgx_after.epc_faults - sgx_before.epc_faults) as f64,
        ),
        count("count.retransmits", delta("client.retransmits")),
        count("count.verify_fail", verify_fail),
    ];

    // Every window ran the check; the registry delta covers the first traced
    // one, the loop's own tallies cover all of them.
    let failed = run.not_ok + run.wrong_values + verify_fail as u64;
    if !summary.conserved {
        println!("{}: spans do not conserve", w.name);
    }
    Outcome {
        metrics,
        attempted: (2 + TRACED_WINDOWS as u64) * ops,
        failed,
        correct: failed == 0 && summary.conserved,
    }
}
