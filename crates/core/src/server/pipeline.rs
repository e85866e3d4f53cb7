//! Pipeline stage: the sweep gluing the stages together.
//!
//! [`PrecursorServer::poll`] runs the one three-phase sweep (§3.8: pop +
//! validate + route → per-shard FIFO execute → per-client in-order seal);
//! `shards = 1` is its N = 1 instance, not a separate loop. Validation —
//! control decrypt plus the at-most-once window check — also lives here:
//! it is what decides a popped record's path through the later stages
//! ([`Validated`]).

use std::ops::Range;

use precursor_crypto::gcm::TAG_LEN;
use precursor_rdma::plock;
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::{Event, Occupancy};
use precursor_storage::ring::RingWrites;
use precursor_storage::robinhood::{shard_of_hash, stable_key_hash};

use crate::config::EncryptionMode;
use crate::wire::{request_aad, Opcode, RequestControlRef, RequestRef, Status};

use precursor_crypto::keys::Tag;

use super::exec::{ExecCtx, ExecRequest, ReplyPlan};
use super::seal::{self, SealBuffers, SealCtx};
use super::session::Admit;
use super::{OpReport, PrecursorServer};

// Outcome of validating one popped record — control decrypt plus the
// at-most-once window check — before anything executes or any reply is
// sealed. Splitting validation from execution and sealing lets the sweep
// execute foreign-shard requests on the shard owning their key while still
// sealing each client's replies in pop order (the `reply_seq` / MAC-chain
// contract requires per-client in-order sealing).
enum Validated<'a> {
    /// Answered without executing: malformed frame or off-window oid.
    Reject {
        status: Status,
        opcode: Opcode,
        oid: u64,
    },
    /// Retransmission of the previous oid: answered from the at-most-once
    /// window at seal time.
    Retransmit { opcode: Opcode, oid: u64 },
    /// In-window (or an idempotently re-executable read): run against the
    /// table partition owning the key. `control` is where the decrypted
    /// control plaintext sits in the sweep's request bytes, `hash` its
    /// key's stable hash.
    Execute {
        opcode: Opcode,
        control: Range<usize>,
        hash: u64,
        frame: RequestRef<'a>,
    },
}

// One popped record's seal-time work (phase C): the meter its charges
// accumulate into, plus how it is answered.
struct PendingAction {
    meter: Meter,
    kind: ActionKind,
}

enum ActionKind {
    /// Executed (or answered without execution): seal + post in pop order.
    Seal {
        status: Status,
        opcode: Opcode,
        value_len: usize,
        plan: ReplyPlan,
        /// Only *executed* operations refresh the at-most-once window: the
        /// window's cached status and the remembered reply WRITEs.
        executed: bool,
        shard: u32,
    },
    /// Retransmission of the previous oid, resolved against the window as
    /// it stands once the client's earlier records of this sweep are sealed.
    Retransmit { opcode: Opcode, oid: u64 },
}

// A validated request parked in its owning shard's execution queue
// (phase B), with the position in the sweep's action list its outcome goes
// to. The record it came from is gone by then, so its control plaintext
// and payload are in the sweep's request bytes, by range.
struct ExecItem {
    idx: usize,
    pos: usize,
    meter: Meter,
    opcode: Opcode,
    control: Range<usize>,
    hash: u64,
    mac: Tag,
    payload: Range<usize>,
}

// A sweep's working memory, kept between sweeps only for its allocations:
// once the buffers have grown to a sweep's size, sweeping allocates
// nothing for its own bookkeeping.
#[derive(Default)]
pub(super) struct SweepScratch {
    // The rings due a visit this sweep (drained from the doorbell board).
    due: Vec<u64>,
    // The due rings one worker owns.
    owned: Vec<usize>,
    // One entry per ring visit, in phase-A order: the client and the end
    // of its records in `actions`. Stored per *visit*, never per connected
    // client, so a sweep's bookkeeping stays O(dirty) at 100k clients.
    visits: Vec<(usize, usize)>,
    // Every popped record's seal-time work, in pop order; `None` while it
    // is parked in an execution queue.
    actions: Vec<Option<PendingAction>>,
    // Per-shard execution queues.
    exec_queues: Vec<Vec<ExecItem>>,
    // The record being validated, popped into the same buffer each time.
    record: Vec<u8>,
    // Every executing request's decrypted control and payload, appended in
    // phase A and read by range in phase B.
    requests: Vec<u8>,
    // The stored values phase B's gets read, by range, for phase C to seal.
    values: Vec<u8>,
    // The reply being sealed and emitted, and its ring WRITEs.
    seal: SealBuffers,
    writes: RingWrites,
}

impl std::fmt::Debug for SweepScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepScratch").finish_non_exhaustive()
    }
}

impl PrecursorServer {
    /// One polling sweep of the trusted threads (§3.8): consumes available
    /// requests, processes them, writes replies into the clients' reply
    /// rings with one-sided WRITEs, and periodically updates credits.
    /// Returns the number of requests processed.
    ///
    /// The sweep is doorbell-driven (DESIGN.md §17): it visits the rings a
    /// delivered client WRITE marked since the last sweep — never an idle
    /// ring.
    ///
    /// Each worker starts from a rotating client (round-robin) and consumes
    /// at most [`Config::poll_budget_per_client`](crate::Config::poll_budget_per_client)
    /// records per client, so a flooding client cannot monopolize the
    /// trusted thread: its surplus requests simply wait in its own ring for
    /// later sweeps.
    pub fn poll(&mut self) -> usize {
        self.ingress.polls += 1;
        // A Byzantine host may flip a bit of a live untrusted payload
        // between sweeps (detected client-side by the payload CMAC).
        if let Some(host) = &self.host {
            let tamper = plock(host).on_sweep();
            if let Some((offset, bit)) = tamper {
                self.store.payload_mem.with_mut(|buf| {
                    if offset < buf.len() {
                        buf[offset] ^= 1 << bit;
                    }
                });
            }
        }
        if self.ingress.ports.is_empty() {
            // Age-based group commits still tick over on idle sweeps.
            self.durability_sweep();
            return 0;
        }
        let mut scratch = std::mem::take(&mut self.ingress.scratch);
        let processed = self.sweep(&mut scratch);
        self.ingress.scratch = scratch;
        self.durability_sweep();
        self.obs.inc("server.polls", 1);
        self.trace("pipeline", "sweep", self.ingress.polls, processed as u64);
        processed
    }

    // The rings due a visit this sweep, drained from the doorbell board
    // (rings remotely written since the last sweep; the board marks each
    // once) into `due` — live clients only, ascending. Revoked clients are
    // dropped here: their rings are gone.
    fn dirty_due(&mut self, due: &mut Vec<u64>) {
        self.ingress.dirty_board.drain(due);
        let ports = &self.ingress.ports;
        due.retain(|&tag| ports.get(tag as usize).is_some_and(Option::is_some));
        due.sort_unstable();
    }

    // One budgeted drain of client `idx`'s request ring: pops up to the
    // per-client budget into `record`, handing each record to `each` in pop
    // order. A budget-capped run may leave records behind, so it re-marks
    // the ring and the next sweep returns without waiting for another
    // WRITE. Returns the records popped.
    fn drain_ring(
        &mut self,
        idx: usize,
        record: &mut Vec<u8>,
        mut each: impl FnMut(&mut Self, &[u8]),
    ) -> usize {
        self.ingress.rings_swept += 1;
        let budget = self.config.poll_budget_per_client;
        // Update reply credits from the client-written word, once per
        // visit: phase A posts nothing, so no record of the visit could
        // read a newer value.
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        let consumed = port.reply_credit.read_u64(0);
        port.reply_producer.update_credits(consumed);
        let ring = port.request_ring.clone();
        let mut taken = 0usize;
        while taken < budget {
            let port = self.ingress.ports[idx].as_mut().expect("live port");
            if !ring.with_mut(|buf| port.request_consumer.pop_from(buf, record)) {
                break;
            }
            each(self, record);
            taken += 1;
        }
        if taken == budget {
            self.ingress.dirty_board.mark(idx as u64);
        }
        taken
    }

    // N trusted polling workers (§3.8: "one or multiple trusted polling
    // threads"), simulated in deterministic order; `shards = 1` is the
    // N = 1 instance. Worker `w` owns the clients with
    // `client_id % shards == w`. Each sweep runs in three phases:
    //
    //   A. every worker pops + validates its owned rings in pop order and
    //      routes in-window requests to the shard owning the key — its
    //      own execution queue, or a foreign shard's via the handoff
    //      queue (charged `shard_handoff_cycles` + the control copy);
    //   B. every shard drains its execution queue FIFO against its own
    //      table partition;
    //   C. every worker seals its clients' replies in per-client pop
    //      order (preserving the reply_seq / MAC-chain contract), posting
    //      each reply's WRITEs as it is sealed, then one credit
    //      write-back per client.
    fn sweep(&mut self, scratch: &mut SweepScratch) -> usize {
        let shards = self.shards();
        // Phase A visits only the rings marked since the last drain;
        // phases B and C operate on what phase A swept.
        self.dirty_due(&mut scratch.due);
        let SweepScratch {
            due,
            owned,
            visits,
            actions,
            exec_queues,
            record,
            requests,
            values,
            seal: seal_buffers,
            writes,
        } = scratch;
        visits.clear();
        actions.clear();
        requests.clear();
        values.clear();
        exec_queues.resize_with(shards, Vec::new);
        let mut processed = 0usize;

        // Phase A — worker sweeps: pop + validate, route to owning shard.
        for w in 0..shards {
            owned.clear();
            owned.extend(
                due.iter()
                    .map(|&tag| tag as usize)
                    .filter(|&i| i % shards == w),
            );
            if owned.is_empty() {
                continue;
            }
            let start = self.ingress.rr_cursors[w] % owned.len();
            self.ingress.rr_cursors[w] = (start + 1) % owned.len();
            for step in 0..owned.len() {
                let idx = owned[(start + step) % owned.len()];
                // Whether an earlier record of this visit will execute: its
                // reply is as good as stored for a retransmission behind it.
                let mut reply_pending = false;
                processed += self.drain_ring(idx, record, |server, record| {
                    let mut meter = Meter::new();
                    let kind = match server.validate_record(
                        idx,
                        record,
                        reply_pending,
                        &mut meter,
                        requests,
                    ) {
                        Validated::Reject {
                            status,
                            opcode,
                            oid,
                        } => ActionKind::Seal {
                            status,
                            opcode,
                            value_len: 0,
                            plan: ReplyPlan::Control { status, oid },
                            executed: false,
                            shard: w as u32,
                        },
                        Validated::Retransmit { opcode, oid } => {
                            ActionKind::Retransmit { opcode, oid }
                        }
                        Validated::Execute {
                            opcode,
                            control,
                            hash,
                            frame,
                        } => {
                            let target = shard_of_hash(hash, shards);
                            if target != w {
                                // Shard-crossing handoff: the popping
                                // worker copies the validated control into
                                // the owning shard's queue.
                                let cost = &server.cost;
                                let len = frame.sealed_control.len();
                                meter.event(Stage::Enclave, Event::Memcpy { len }, 1, cost);
                                meter.event(Stage::Enclave, Event::ShardHandoff, 1, cost);
                            }
                            reply_pending = true;
                            let payload_at = requests.len();
                            requests.extend_from_slice(frame.payload);
                            exec_queues[target].push(ExecItem {
                                idx,
                                pos: actions.len(),
                                meter,
                                opcode,
                                control,
                                hash,
                                mac: frame.mac,
                                payload: payload_at..requests.len(),
                            });
                            actions.push(None);
                            return;
                        }
                    };
                    actions.push(Some(PendingAction { meter, kind }));
                });
                visits.push((idx, actions.len()));
            }
        }

        // Phase B — per-shard FIFO execution against the owned partition.
        for (s, queue) in exec_queues.iter_mut().enumerate() {
            for item in queue.drain(..) {
                let ExecItem {
                    idx,
                    pos,
                    mut meter,
                    opcode,
                    control,
                    hash,
                    mac,
                    payload,
                } = item;
                let control =
                    RequestControlRef::parse(&requests[control]).expect("validated in phase A");
                let (key, op_oid) = (control.key, control.oid);
                let exec_result = if let Some(busy) = self.catchup_gate(opcode, op_oid) {
                    Ok(busy)
                } else if let Some(redirect) = self.routing_gate(hash, op_oid) {
                    Ok(redirect)
                } else {
                    let mut ctx = ExecCtx {
                        enclave: &mut self.enclave,
                        config: &self.config,
                        cost: &self.cost,
                        host: self.host.as_deref(),
                    };
                    self.store.execute_plan(
                        &mut ctx,
                        ExecRequest {
                            idx,
                            opcode,
                            control,
                            hash,
                            payload: &requests[payload],
                            mac,
                            session_key: &self.sessions.list[idx].session_key,
                        },
                        &mut meter,
                        values,
                    )
                };
                let kind = match exec_result {
                    Ok((status, value_len, plan)) => {
                        self.trace("exec", super::op_metric(opcode), idx as u64, status as u64);
                        self.journal_mutation(idx, opcode, status, key, op_oid, &mut meter);
                        ActionKind::Seal {
                            status,
                            opcode,
                            value_len,
                            plan,
                            executed: true,
                            shard: s as u32,
                        }
                    }
                    // Store-level failure: an error reply that at least
                    // unblocks the client (chain-linked like any other, so
                    // the client's verification stream stays contiguous).
                    Err(_) => ActionKind::Seal {
                        status: Status::Error,
                        opcode: Opcode::Get,
                        value_len: 0,
                        plan: ReplyPlan::Control {
                            status: Status::Error,
                            oid: 0,
                        },
                        executed: false,
                        shard: s as u32,
                    },
                };
                actions[pos] = Some(PendingAction { meter, kind });
            }
        }

        // Phase C — per-client in-order sealing, each reply posted as it is
        // sealed (one-sided WRITEs by the untrusted worker, §3.8), then one
        // credit write-back per swept client.
        let mut first = 0;
        for &(idx, end) in visits.iter() {
            for act in &mut actions[first..end] {
                let PendingAction { mut meter, kind } = act.take().expect("executed in phase B");
                let (status, opcode, value_len, shard) = match kind {
                    ActionKind::Seal {
                        status,
                        opcode,
                        value_len,
                        plan,
                        executed,
                        shard,
                    } => {
                        if executed {
                            self.sessions.list[idx].window.executed(status);
                        }
                        self.seal_for(idx, opcode, plan, values, &mut meter, seal_buffers);
                        let reply = &seal_buffers.frame;
                        self.emit_fresh(idx, reply, executed, &mut meter, writes);
                        (status, opcode, value_len, shard)
                    }
                    ActionKind::Retransmit { opcode, oid } => {
                        // Read here, not in phase A: the original may have
                        // been sealed a moment ago, earlier in this sweep.
                        let status = self.sessions.list[idx].window.cached_status();
                        let port = self.ingress.ports[idx].as_ref().expect("live port");
                        if port.last_reply.is_empty() {
                            // The session was re-established since the
                            // operation ran (QP reconnect or crash-restart),
                            // so the original reply bytes — sealed under
                            // the old session key — are gone. Mutations
                            // must not run twice: acknowledge from the
                            // cached status.
                            let plan = ReplyPlan::Control { status, oid };
                            self.seal_for(idx, opcode, plan, values, &mut meter, seal_buffers);
                            let reply = &seal_buffers.frame;
                            self.emit_fresh(idx, reply, true, &mut meter, writes);
                        } else {
                            // Same session: re-issue the stored reply WRITEs
                            // verbatim (fills a reply-ring hole; the client
                            // dedups by reply_seq).
                            self.emit_retransmit(idx, &mut meter);
                        }
                        (status, opcode, 0, (idx % shards) as u32)
                    }
                };
                self.charge_fixed_occupancy(opcode, &mut meter);
                self.push_report(OpReport {
                    client_id: idx as u32,
                    opcode,
                    status,
                    value_len,
                    shard,
                    meter,
                });
            }
            first = end;
            self.post_credit_update(idx);
        }
        processed
    }

    // Seals one [`ReplyPlan`], whose value ranges index `values`, for
    // client `idx` into `buffers.frame` by assembling the narrow
    // [`SealCtx`] out of disjoint borrows of the stage states.
    fn seal_for(
        &mut self,
        idx: usize,
        opcode: Opcode,
        plan: ReplyPlan,
        values: &[u8],
        meter: &mut Meter,
        buffers: &mut SealBuffers,
    ) {
        let mut ctx = SealCtx {
            enclave: &mut self.enclave,
            cost: &self.cost,
            evidence: self.store.evidence(),
            values,
            buffers,
        };
        let session = &mut self.sessions.list[idx];
        let reply_seq = seal::seal_plan(&mut ctx, session, opcode, plan, meter);
        self.trace("seal", super::op_metric(opcode), idx as u64, reply_seq);
    }

    // Fixed per-op occupancy (fitted constants; DESIGN.md §4): part of it
    // is on the request's critical path, the rest is polling overhead.
    fn charge_fixed_occupancy(&self, opcode: Opcode, meter: &mut Meter) {
        let op = Occupancy::Precursor {
            put: opcode == Opcode::Put,
            server_enc: self.config.mode == EncryptionMode::ServerSide,
        };
        let cost = &self.cost;
        meter.event(Stage::ServerCritical, Event::FixedCritical(op), 1, cost);
        meter.event(Stage::ServerOverhead, Event::FixedOverhead(op), 1, cost);
    }

    // Observability wrapper around validation: counts each outcome class
    // and emits the ingress-stage trace event.
    fn validate_record<'r>(
        &mut self,
        idx: usize,
        record: &'r [u8],
        reply_pending: bool,
        meter: &mut Meter,
        requests: &mut Vec<u8>,
    ) -> Validated<'r> {
        let v = self.validate_record_inner(idx, record, reply_pending, meter, requests);
        let (counter, event) = match &v {
            Validated::Reject { .. } => ("server.validate.reject", "reject"),
            Validated::Retransmit { .. } => ("server.validate.retransmit", "retransmit"),
            Validated::Execute { .. } => ("server.validate.execute", "execute"),
        };
        self.obs.inc(counter, 1);
        self.trace("ingress", event, idx as u64, record.len() as u64);
        v
    }

    // Decodes, authenticates and window-checks one popped request record —
    // everything that must happen in a client's pop order, but *before*
    // the key-addressed table access. The result tells the caller whether
    // to reply straight away ([`Validated::Reject`]), re-issue the stored
    // reply ([`Validated::Retransmit`]), or route the request to the shard
    // owning its key ([`Validated::Execute`]). The control is decrypted in
    // place at the end of `requests`, and stays there only when it will
    // execute.
    fn validate_record_inner<'r>(
        &mut self,
        idx: usize,
        record: &'r [u8],
        reply_pending: bool,
        meter: &mut Meter,
        requests: &mut Vec<u8>,
    ) -> Validated<'r> {
        let cost = &self.cost;

        // Untrusted: the record was copied out of the ring by the poller.
        let len = record.len();
        meter.event(Stage::ServerCritical, Event::Memcpy { len }, 1, cost);
        meter.event(Stage::ServerCritical, Event::RdmaPoll, 1, cost);

        // Structurally invalid records still earn an error reply that at
        // least unblocks the client (chain-linked like any other, so the
        // client's verification stream stays contiguous).
        let Ok(frame) = RequestRef::parse(record) else {
            return Validated::Reject {
                status: Status::Error,
                opcode: Opcode::Get,
                oid: 0,
            };
        };
        if frame.client_id as usize != idx {
            return Validated::Reject {
                status: Status::Error,
                opcode: Opcode::Get,
                oid: 0,
            };
        }
        let opcode = frame.opcode;

        // Only the control segment crosses into the enclave (§3.7 step 3).
        self.enclave
            .copy_across_boundary(frame.sealed_control.len(), meter, cost);

        // Trusted: decrypt + authenticate the control data (Algorithm 2,
        // lines 2-3).
        let aad = request_aad(opcode, frame.client_id);
        let len = frame.sealed_control.len();
        meter.event(Stage::Enclave, Event::Gcm { len }, 1, cost);
        let session_key = &self.sessions.list[idx].session_key;
        let at = requests.len();
        let parsed = frame
            .sealed_control
            .len()
            .checked_sub(TAG_LEN)
            .and_then(|ct_len| {
                let (ct, tag) = frame.sealed_control.split_at(ct_len);
                requests.extend_from_slice(ct);
                let plain = &mut requests[at..];
                session_key
                    .open_in_place_detached(&frame.iv, &aad, plain, tag)
                    .ok()?;
                let control = RequestControlRef::parse(&requests[at..]).ok()?;
                // The key's one hash: it routes the request to its shard
                // and places it in the shard's table.
                Some((control.oid, stable_key_hash(control.key)))
            });
        let control = at..requests.len();
        let Some((oid, hash)) = parsed else {
            requests.truncate(at);
            return Validated::Reject {
                status: Status::Error,
                opcode,
                oid: 0,
            };
        };

        // Replay detection, relaxed to an at-most-once window (Algorithm 2,
        // lines 4-5): the per-client oid slot lives in trusted memory. The
        // *previous* oid is tolerated — it is a retransmission after a lost
        // reply (or a replayed frame, which then gains nothing: the cached
        // acknowledgement is re-sent and no state changes). Anything else
        // off-sequence is rejected.
        self.enclave.touch(
            self.sessions.client_region,
            idx as u64 * 64,
            64,
            meter,
            cost,
        );
        match self.sessions.list[idx].window.admit(oid) {
            Admit::Fresh => {}
            Admit::Reject => {
                requests.truncate(at);
                return Validated::Reject {
                    status: Status::Replay,
                    opcode,
                    oid,
                };
            }
            Admit::Retransmit => {
                // A stored reply is re-issued (or, for a mutation whose
                // reply bytes are gone, re-acknowledged from the cached
                // status) at seal time. `reply_pending` counts as stored:
                // the original is an earlier record of this very ring
                // visit, so the duplicate is answered exactly as if it had
                // arrived one sweep later. Only a read with nothing stored
                // — the session was re-established since it ran — is
                // re-executed for a full reply: reads are idempotent.
                let nothing_stored = !reply_pending
                    && self.ingress.ports[idx]
                        .as_ref()
                        .is_none_or(|p| p.last_reply.is_empty());
                if opcode != Opcode::Get || !nothing_stored {
                    requests.truncate(at);
                    return Validated::Retransmit { opcode, oid };
                }
            }
        }
        Validated::Execute {
            opcode,
            control,
            hash,
            frame,
        }
    }
}
