//! Seal stage: turns a [`ReplyPlan`] into a sealed [`ReplyFrame`].
//!
//! Sealing consumes the client's next reply sequence number, advances the
//! per-session reply MAC chain, and stamps the Byzantine-evidence fields
//! (epoch, store-mutation sequence + digest) — so it must run in each
//! client's pop order, regardless of which shard executed the operation.
//! The stage's inputs are deliberately narrow: one [`SealCtx`], one
//! [`Session`], and the plan to seal.

use precursor_crypto::gcm;
use precursor_crypto::keys::Tag;
use precursor_sgx::enclave::Enclave;
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::CostModel;

use crate::wire::{
    chain_input, payload_reply_nonce, reply_nonce, Opcode, ReplyControl, ReplyFrame, Status,
};

use super::exec::{EntryMeta, ReplyPlan};
use super::session::Session;

// The store-mutation evidence (rollback/fork detection) stamped into every
// sealed reply control — produced by `StoreExec::evidence()`.
#[derive(Debug, Clone, Copy)]
pub(super) struct StoreEvidence {
    pub(super) mutation_seq: u64,
    pub(super) state_digest: [u8; 16],
}

// The narrow slice of server state the seal stage borrows per reply: the
// enclave the control is sealed in, the cost model, the configured busy
// retry hint, and the store evidence snapshot.
pub(super) struct SealCtx<'a> {
    pub(super) enclave: &'a mut Enclave,
    pub(super) cost: &'a CostModel,
    pub(super) busy_retry_ns: u64,
    pub(super) evidence: StoreEvidence,
}

// Seals one [`ReplyPlan`] into a [`ReplyFrame`], consuming the client's
// next reply sequence number and advancing its MAC chain. Must be called
// in the client's pop order.
pub(super) fn seal_plan(
    ctx: &mut SealCtx<'_>,
    session: &mut Session,
    opcode: Opcode,
    plan: ReplyPlan,
    meter: &mut Meter,
) -> ReplyFrame {
    match plan {
        ReplyPlan::Control { status, oid } => finish_reply(
            ctx,
            session,
            status,
            opcode,
            ReplyControl::basic(oid),
            Vec::new(),
            meter,
        ),
        ReplyPlan::Busy { oid } => {
            // A Status::Busy backpressure reply carrying the retry hint.
            let control = ReplyControl {
                retry_after_ns: ctx.busy_retry_ns,
                ..ReplyControl::basic(oid)
            };
            finish_reply(
                ctx,
                session,
                Status::Busy,
                opcode,
                control,
                Vec::new(),
                meter,
            )
        }
        ReplyPlan::NotMine { oid, hint } => {
            // A sealed routing redirect: the owner hint rides the
            // `retry_after_ns` field, which `chain_input` already binds
            // into the per-session MAC chain.
            let control = ReplyControl {
                retry_after_ns: hint,
                ..ReplyControl::basic(oid)
            };
            finish_reply(
                ctx,
                session,
                Status::NotMine,
                opcode,
                control,
                Vec::new(),
                meter,
            )
        }
        ReplyPlan::GetHit {
            entry,
            payload,
            mac,
            oid,
        } => ok_reply(
            ctx,
            session,
            opcode,
            oid,
            Some((entry, payload, mac)),
            meter,
        ),
        ReplyPlan::ServerEncGet { plain, oid } => {
            let session_key = session.session_key.clone();
            // The payload transport seal uses the same reply_seq the
            // control reply will consume, so peek it; finish_reply
            // increments it once.
            let seq = session.reply_seq;
            meter.charge(
                Stage::Enclave,
                ctx.cost.server_time(ctx.cost.aes_gcm(plain.len())),
            );
            let transport = gcm::seal(&session_key, &payload_reply_nonce(seq), &[], &plain);
            ctx.enclave
                .copy_across_boundary(transport.len(), meter, ctx.cost);
            finish_reply(
                ctx,
                session,
                Status::Ok,
                opcode,
                ReplyControl::basic(oid),
                transport,
                meter,
            )
        }
    }
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
    payload: Vec<u8>,
    meter: &mut Meter,
) -> ReplyFrame {
    let seq = session.reply_seq;
    session.reply_seq += 1;
    control.epoch = session.epoch;
    control.store_seq = ctx.evidence.mutation_seq;
    control.store_digest = ctx.evidence.state_digest;
    control.chain = session
        .chain
        .advance(&chain_input(status, opcode, seq, &control));
    let control_bytes = control.encode();
    meter.charge(
        Stage::Enclave,
        ctx.cost.server_time(ctx.cost.aes_gcm(control_bytes.len())),
    );
    ctx.enclave
        .copy_across_boundary(control_bytes.len(), meter, ctx.cost);
    let sealed = gcm::seal(&session.session_key, &reply_nonce(seq), &[], &control_bytes);
    ReplyFrame {
        status,
        opcode,
        reply_seq: seq,
        sealed_control: sealed,
        payload,
    }
}

fn ok_reply(
    ctx: &mut SealCtx<'_>,
    session: &mut Session,
    opcode: Opcode,
    oid: u64,
    get_payload: Option<(EntryMeta, Vec<u8>, Tag)>,
    meter: &mut Meter,
) -> ReplyFrame {
    let (control, payload) = match get_payload {
        Some((entry, payload, mac)) => (
            ReplyControl {
                k_op: Some(entry.k_op),
                payload_nonce: Some(entry.payload_nonce),
                mac: Some(mac),
                ..ReplyControl::basic(oid)
            },
            payload,
        ),
        None => (ReplyControl::basic(oid), Vec::new()),
    };
    finish_reply(ctx, session, Status::Ok, opcode, control, payload, meter)
}
