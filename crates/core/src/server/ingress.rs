//! Ingress stage: the untrusted per-client plumbing.
//!
//! Owns [`Ingress`] — the per-client [`ClientPort`]s (request-ring
//! consumers, reply-ring producers, credit words), the bounded
//! [`OpReport`] buffer, and the sweep counters. The stage's job is the
//! host-side I/O: provisioning rings on admission, posting reply WRITEs
//! (one post per ring chunk of each sealed record), re-issuing remembered
//! replies on retransmission, and the credit write-backs.

use std::collections::VecDeque;

use precursor_rdma::mr::{Memory, RemoteKey, WriteBoard};
use precursor_rdma::plock;
use precursor_rdma::qp::QueuePair;
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::Event;
use precursor_storage::ring::{framed_payload, RingConsumer, RingProducer, RingStore, RingWrites};

use super::pipeline::SweepScratch;
use super::{OpReport, PrecursorServer};

// Untrusted per-client plumbing.
#[derive(Debug)]
pub(super) struct ClientPort {
    pub(super) qp: QueuePair, // server end
    pub(super) request_ring: Memory<RingStore>,
    pub(super) request_consumer: RingConsumer,
    pub(super) reply_producer: RingProducer,
    pub(super) reply_ring_rkey: RemoteKey,
    pub(super) credit_rkey: RemoteKey,
    pub(super) reply_credit: Memory,
    /// The WRITEs that carried the last executed operation's reply — the
    /// one remembered copy of it: an optional wrap marker, then the framed
    /// record. Re-issued verbatim when that operation is retransmitted, so
    /// a reply lost in flight (a hole the client's ring consumer is parked
    /// on) gets filled idempotently.
    pub(super) last_reply: RingWrites,
    /// The producer's absolute position after the remembered reply was
    /// pushed. When the client has already consumed past that position (a
    /// Byzantine host substituted the record, which the consumer then
    /// zeroed), a verbatim rewrite would deposit garbage into consumed ring
    /// space — instead the record is re-pushed as a *fresh* ring record
    /// (same `reply_seq`; the client dedups or late-accepts it).
    pub(super) last_reply_end: u64,
    /// The last `consumed` value written back to the client's credit word
    /// — a sweep that consumed nothing skips the (redundant) WRITE.
    pub(super) last_credit: u64,
}

// Ingress-stage state: every untrusted per-client port plus the report
// buffer and the sweep counters (the per-event ones — credit write-backs,
// shard handoffs, dropped reports — live in the server's registry only).
#[derive(Debug)]
pub(super) struct Ingress {
    // `None` marks a revoked slot: ids are stable (they index the trusted
    // session table) and are never recycled, but the revoked client's rings
    // and MRs are dropped.
    pub(super) ports: Vec<Option<ClientPort>>,
    pub(super) reports: VecDeque<OpReport>,
    // Per-worker round-robin cursors over each worker's due rings.
    pub(super) rr_cursors: Vec<usize>,
    pub(super) polls: u64,
    // Doorbell board: every request ring is registered with a write-watch
    // that marks the owning client's index here on each *delivered* WRITE.
    // Sweeps drain the board instead of scanning rings, so an idle ring
    // costs nothing. Untrusted host state (DESIGN.md §8).
    pub(super) dirty_board: WriteBoard,
    // The sweep's working memory (due rings, visits, queues, record and
    // reply buffers), kept only for its allocations.
    pub(super) scratch: SweepScratch,
    // Ring visits performed by poll sweeps: what the driver's cost model
    // charges `poll_scan_per_client` against.
    pub(super) rings_swept: u64,
}

impl PrecursorServer {
    // Credit write-back: one small one-sided WRITE per sweep (§3.8,
    // "periodically, these threads update clients about the newly
    // available buffer slots using one-sided writes") — skipped when the
    // sweep consumed nothing, so idle clients' credit words are not
    // redundantly rewritten.
    pub(super) fn post_credit_update(&mut self, idx: usize) {
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        let consumed = port.request_consumer.consumed();
        if consumed == port.last_credit {
            return;
        }
        port.last_credit = consumed;
        let credit_rkey = port.credit_rkey;
        let _ = port
            .qp
            .post_write(credit_rkey, 0, &consumed.to_le_bytes(), false);
        self.obs.inc("server.credit_writes", 1);
        self.trace("ingress", "credit_write", idx as u64, consumed);
    }

    /// Takes the per-operation reports accumulated by [`poll`](Self::poll).
    pub fn take_reports(&mut self) -> Vec<OpReport> {
        self.drain_reports().collect()
    }

    /// [`take_reports`](Self::take_reports) without collecting: the
    /// reports in processing order, for a caller that converts them into
    /// its own collection.
    pub fn drain_reports(&mut self) -> impl Iterator<Item = OpReport> + '_ {
        self.ingress.reports.drain(..)
    }

    // Posts a freshly sealed reply's ring WRITEs — the one reply-emit
    // path: every record is posted as it is sealed. `bytes` is the encoded
    // reply frame; `writes` is the buffer its WRITEs are built in (swapped
    // with the port's remembered reply when it is kept).
    pub(super) fn emit_fresh(
        &mut self,
        idx: usize,
        bytes: &[u8],
        remember: bool,
        meter: &mut Meter,
        writes: &mut RingWrites,
    ) {
        // Push into the producer first, collecting the ring WRITEs
        // the honest host would post ...
        let (end, pushed) = {
            let port = self.ingress.ports[idx].as_mut().expect("live port");
            let pushed = port.reply_producer.push_with(bytes, writes);
            (port.reply_producer.written(), pushed.is_some())
        };
        // ... then let the host (when attached) substitute, hold, or
        // duplicate them before they hit the wire. Either way the WRITEs
        // go through the group-commit gate: with no journal (or an
        // up-to-date commit point) they post immediately, otherwise they
        // are held until the operation's journal group commits.
        match &self.host {
            Some(host) => {
                let honest = writes.iter().map(|(off, b)| (off, b.to_vec())).collect();
                // The lock is released before posting: the QP's WRITEs
                // pass through the same host.
                let records = plock(host).on_reply_record(idx as u32, honest);
                let mut posted = RingWrites::default();
                for (off, b) in records {
                    posted.push(off, &b);
                }
                self.post_or_gate(idx, &posted);
            }
            None => self.post_or_gate(idx, writes),
        }
        // Metered on the honest `writes`, so cost accounting is identical
        // with and without a host.
        self.charge_posts(writes.len(), meter);
        let len = bytes.len();
        meter.event(Stage::ServerCritical, Event::Tx { len }, 1, &self.cost);
        if remember {
            // Remember the *honest* record for retransmissions —
            // retransmits bypass the host's reply moves by design, so a
            // wronged client can always recover the real reply.
            let port = self.ingress.ports[idx].as_mut().expect("live port");
            std::mem::swap(&mut port.last_reply, writes);
            port.last_reply_end = end;
        }
        if !pushed {
            // Reply ring full: in the real system the worker would
            // retry after the next credit update; the simulation's
            // rings are sized to make this unreachable under the
            // drivers.
            debug_assert!(false, "reply ring full");
        }
    }

    // The one post-accounting rule: every reply WRITE handed to the QP is
    // one post (a record that wraps the ring is two).
    fn charge_posts(&self, writes: usize, meter: &mut Meter) {
        for _ in 0..writes {
            meter.event(Stage::ServerCritical, Event::RdmaPost, 1, &self.cost);
        }
    }

    // Re-issues the remembered last reply of `idx` (retransmission path).
    pub(super) fn emit_retransmit(&mut self, idx: usize, meter: &mut Meter) {
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        // Taken out for the post below and put back: the one copy.
        let mut writes = std::mem::take(&mut port.last_reply);
        let consumed = port.reply_credit.read_u64(0);
        if consumed >= port.last_reply_end {
            // The client already consumed past the remembered record (it
            // saw a host-substituted record there and zeroed the
            // slot): rewriting the old offsets would deposit bytes into
            // consumed ring space. Re-push the remembered record as a
            // fresh one instead — same `reply_seq`, so the client dedups
            // or late-accepts it.
            port.reply_producer.update_credits(consumed);
            let (_, framed) = writes
                .last()
                .expect("a remembered reply ends in its record");
            let record = framed_payload(framed).to_vec();
            let _ = port.reply_producer.push_with(&record, &mut writes);
            port.last_reply_end = port.reply_producer.written();
        }
        // Otherwise the last reply's WRITEs are re-issued verbatim: that
        // fills any hole a dropped reply WRITE left in the client's reply
        // ring, without consuming a new reply sequence number.
        self.charge_posts(writes.len(), meter);
        let len = writes.byte_len();
        meter.event(Stage::ServerCritical, Event::Tx { len }, 1, &self.cost);
        self.post_or_gate(idx, &writes);
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        port.last_reply = writes;
    }

    // Bounded report buffer: a caller that never drains take_reports()
    // loses the oldest reports (counted) instead of growing memory. This
    // is also the single choke point every finished op passes, so the
    // per-stage metric taps live here: whatever the bench or test layer
    // does with the reports, the registry has already seen the meter.
    pub(super) fn push_report(&mut self, report: OpReport) {
        self.obs.inc(super::op_metric(report.opcode), 1);
        self.obs.inc(super::status_metric(report.status), 1);
        precursor_obs::observe_meter(&mut self.obs, &report.meter);
        self.trace(
            "report",
            super::op_metric(report.opcode),
            u64::from(report.client_id),
            report.status as u64,
        );
        if self.ingress.reports.len() >= self.config.max_buffered_reports {
            self.ingress.reports.pop_front();
            self.obs.inc("server.reports_dropped", 1);
        }
        self.ingress.reports.push_back(report);
    }
}
