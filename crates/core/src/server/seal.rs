//! Seal stage: turns a [`ReplyPlan`] into a sealed reply frame.
//!
//! Sealing consumes the client's next reply sequence number, advances the
//! per-session reply MAC chain, and stamps the Byzantine-evidence fields
//! (epoch, store-mutation sequence + digest) — so it must run in each
//! client's pop order, regardless of which shard executed the operation.
//! The stage's inputs are deliberately narrow: one [`SealCtx`], one
//! [`Session`], and the plan to seal.

use std::ops::Range;

use precursor_sgx::enclave::Enclave;
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::{CostModel, Event};

use crate::wire::{
    chain_input, payload_reply_nonce, reply_nonce, Opcode, ReplyControl, ReplyRef, Status,
};

use super::exec::ReplyPlan;
use super::session::Session;

// The store-mutation evidence (rollback/fork detection) stamped into every
// sealed reply control — produced by `StoreExec::evidence()`.
#[derive(Debug, Clone, Copy)]
pub(super) struct StoreEvidence {
    pub(super) mutation_seq: u64,
    pub(super) state_digest: [u8; 16],
}

// The buffers one reply is built in — the control plaintext, its sealed
// form, a server-encryption get's transport-sealed value, and the framed
// reply record — kept by the sweep and reused for every reply.
#[derive(Debug, Default)]
pub(super) struct SealBuffers {
    control: Vec<u8>,
    sealed: Vec<u8>,
    payload: Vec<u8>,
    pub(super) frame: Vec<u8>,
}

// The retry hint a `Status::Busy` reply carries, in simulated nanoseconds.
const BUSY_RETRY_NS: u64 = 100_000;

// The narrow slice of server state the seal stage borrows per reply: the
// enclave the control is sealed in, the cost model, the store evidence
// snapshot, the value bytes a plan's ranges index, and the reused buffers.
pub(super) struct SealCtx<'a> {
    pub(super) enclave: &'a mut Enclave,
    pub(super) cost: &'a CostModel,
    pub(super) evidence: StoreEvidence,
    pub(super) values: &'a [u8],
    pub(super) buffers: &'a mut SealBuffers,
}

// Seals one [`ReplyPlan`] into `ctx.buffers.frame` (its ring-record bytes),
// consuming the client's next reply sequence number — which it returns —
// and advancing its MAC chain. Must be called in the client's pop order.
pub(super) fn seal_plan(
    ctx: &mut SealCtx<'_>,
    session: &mut Session,
    opcode: Opcode,
    plan: ReplyPlan,
    meter: &mut Meter,
) -> u64 {
    let mut payload = Payload::None;
    let (status, control) = match plan {
        ReplyPlan::Control { status, oid } => (status, ReplyControl::basic(oid)),
        // A Status::Busy backpressure reply carrying the retry hint.
        ReplyPlan::Busy { oid } => (
            Status::Busy,
            ReplyControl {
                retry_after_ns: BUSY_RETRY_NS,
                ..ReplyControl::basic(oid)
            },
        ),
        // A sealed routing redirect: the owner hint rides the
        // `retry_after_ns` field, which `chain_input` already binds into
        // the per-session MAC chain.
        ReplyPlan::NotMine { oid, hint } => (
            Status::NotMine,
            ReplyControl {
                retry_after_ns: hint,
                ..ReplyControl::basic(oid)
            },
        ),
        ReplyPlan::GetHit {
            k_op,
            payload_nonce,
            payload: value,
            mac,
            oid,
        } => {
            payload = Payload::Value(value);
            let control = ReplyControl {
                k_op: Some(k_op),
                payload_nonce: Some(payload_nonce),
                mac: Some(mac),
                ..ReplyControl::basic(oid)
            };
            (Status::Ok, control)
        }
        ReplyPlan::ServerEncGet { plain, oid } => {
            // The payload transport seal uses the same reply_seq the
            // control reply will consume, so peek it; finish_reply
            // increments it once.
            let seq = session.reply_seq;
            let len = plain.len();
            meter.event(Stage::Enclave, Event::Gcm { len }, 1, ctx.cost);
            let transport = &mut ctx.buffers.payload;
            transport.clear();
            let nonce = payload_reply_nonce(seq);
            let plain = &ctx.values[plain];
            session.session_key.seal_into(transport, &nonce, &[], plain);
            ctx.enclave
                .copy_across_boundary(transport.len(), meter, ctx.cost);
            payload = Payload::Sealed;
            (Status::Ok, ReplyControl::basic(oid))
        }
    };
    finish_reply(ctx, session, status, opcode, control, payload, meter)
}

// Where a reply's payload bytes are: none, a value the plan read out (a
// range of the sweep's value bytes), or a value sealed for transport into
// the seal buffers.
enum Payload {
    None,
    Value(Range<usize>),
    Sealed,
}

// Finalizes any reply inside the enclave: stamps the Byzantine-evidence
// fields (epoch, store seq + digest), advances the per-session reply MAC
// chain over the canonical bytes, seals the control, and consumes one
// reply sequence number.
fn finish_reply(
    ctx: &mut SealCtx<'_>,
    session: &mut Session,
    status: Status,
    opcode: Opcode,
    mut control: ReplyControl,
    payload: Payload,
    meter: &mut Meter,
) -> u64 {
    let seq = session.reply_seq;
    session.reply_seq += 1;
    control.epoch = session.window.epoch();
    control.store_seq = ctx.evidence.mutation_seq;
    control.store_digest = ctx.evidence.state_digest;
    control.chain = session
        .chain
        .advance(&chain_input(status, opcode, seq, &control));
    let SealBuffers {
        control: plain,
        sealed,
        payload: transport,
        frame,
    } = &mut *ctx.buffers;
    let payload = match payload {
        Payload::None => &[][..],
        Payload::Value(value) => &ctx.values[value],
        Payload::Sealed => &transport[..],
    };
    control.encode_into(plain);
    meter.event(Stage::Enclave, Event::Gcm { len: plain.len() }, 1, ctx.cost);
    ctx.enclave
        .copy_across_boundary(plain.len(), meter, ctx.cost);
    sealed.clear();
    session
        .session_key
        .seal_into(sealed, &reply_nonce(seq), &[], plain);
    ReplyRef {
        status,
        opcode,
        reply_seq: seq,
        sealed_control: sealed,
        payload,
    }
    .encode_into(frame);
    seq
}
