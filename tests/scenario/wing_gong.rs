//! Wing–Gong linearizability checker over per-key KV subhistories, shared
//! by the scenario harness (oracle 2 of every multi-client row) and the
//! failover model checker (per-key oracle on explored interleavings).
//!
//! The search repeatedly linearizes one *minimal* operation — no other
//! pending op responded before it was invoked — that the sequential model
//! accepts, memoizing failed (done-set, state) pairs.

#![allow(dead_code)]

use std::collections::{BTreeSet, HashSet};

/// One observed operation kind with its observation.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Put of a globally unique value (so reads identify their writer).
    Put(Vec<u8>),
    /// Get observing `Some(value)` or `None` (NotFound).
    Get(Option<Vec<u8>>),
    /// Delete observing whether the key existed (Ok vs NotFound).
    Delete(bool),
}

/// One invoke/response-stamped history entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistOp {
    pub key: u8,
    pub kind: Kind,
    pub invoke: u64,
    pub response: u64,
}

// Applies `kind` to the per-key sequential model state; `None` = the
// observation is impossible in that state.
#[allow(clippy::option_option)]
fn apply(state: &Option<Vec<u8>>, kind: &Kind) -> Option<Option<Vec<u8>>> {
    match kind {
        Kind::Put(v) => Some(Some(v.clone())),
        Kind::Get(obs) => (obs == state).then(|| state.clone()),
        Kind::Delete(existed) => (*existed == state.is_some()).then_some(None),
    }
}

/// Whether the per-key subhistory `ops` admits a legal sequential witness.
pub fn linearizable(ops: &[&HistOp]) -> bool {
    assert!(ops.len() <= 128, "mask width");
    let all: u128 = if ops.len() == 128 {
        u128::MAX
    } else {
        (1u128 << ops.len()) - 1
    };
    let mut failed: HashSet<(u128, Option<Vec<u8>>)> = HashSet::new();
    search(ops, 0, all, None, &mut failed)
}

fn search(
    ops: &[&HistOp],
    done: u128,
    all: u128,
    state: Option<Vec<u8>>,
    failed: &mut HashSet<(u128, Option<Vec<u8>>)>,
) -> bool {
    if done == all {
        return true;
    }
    if failed.contains(&(done, state.clone())) {
        return false;
    }
    let min_resp = ops
        .iter()
        .enumerate()
        .filter(|(i, _)| done & (1 << i) == 0)
        .map(|(_, o)| o.response)
        .min()
        .expect("undone op exists");
    for (i, op) in ops.iter().enumerate() {
        if done & (1 << i) != 0 || op.invoke > min_resp {
            continue;
        }
        if let Some(next) = apply(&state, &op.kind) {
            if search(ops, done | (1 << i), all, next, failed) {
                return true;
            }
        }
    }
    failed.insert((done, state));
    false
}

/// Checks every per-key subhistory of `history`; `Err` carries the first
/// key with no legal witness.
pub fn check_history(history: &[HistOp]) -> Result<(), String> {
    let keys: BTreeSet<u8> = history.iter().map(|o| o.key).collect();
    for key in keys {
        let ops: Vec<&HistOp> = history.iter().filter(|o| o.key == key).collect();
        if !linearizable(&ops) {
            return Err(format!(
                "key {key}: no linearization of {} ops: {ops:?}",
                ops.len()
            ));
        }
    }
    Ok(())
}
