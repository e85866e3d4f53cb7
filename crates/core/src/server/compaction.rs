//! Compaction stage: cutting the store into a sealed snapshot, and the
//! two-phase commit that lets the cut replace the journal prefix behind it.
//!
//! A cut costs what was written. The last committed cut is kept as a
//! [`SnapshotBlob`] — a sealed base and a chain of deltas — whose buffers
//! are shared: the next cut seals the keys written since as one more delta,
//! carries the base and the earlier deltas by reference, and hands the host
//! a copy that shares every part. A cut whose chain would outgrow its share
//! of the base folds the chain into a new base instead. Only the first cut,
//! or one whose previous cut no longer authenticates, walks the table.
//! DESIGN §14 "Log compaction" has the rule and the measurements.

use std::ops::Range;

use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::Nonce12;
use precursor_journal::Journal;
use precursor_rdma::host::{DurableVerdict, HostSite};
use precursor_rdma::plock;
use precursor_sgx::counters::MonotonicCounter;

use crate::snapshot::{self, Cut, DirtyKeys, PreviousCut, SnapshotBlob, SnapshotHeader};

use super::PrecursorServer;

/// Result of [`PrecursorServer::compact_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactOutcome {
    /// Nothing to compact: no journal, wedged, uncommitted or pending
    /// records, or no records past the previous cut.
    Skipped,
    /// The host damaged the tentative snapshot seal. The trusted counter
    /// was not advanced, the previous snapshot is still authoritative, and
    /// the journal is whole — recovery state is unchanged.
    Aborted,
    /// Snapshot committed and prefix truncated.
    Compacted {
        /// The sealed snapshot now anchoring recovery, as the host
        /// persisted it (store it where the old base snapshot lived).
        snapshot: SnapshotBlob,
        /// Records removed from the durable stream.
        truncated_records: u64,
        /// The cut: first surviving record is `base_seq + 1`.
        base_seq: u64,
    },
    /// Snapshot committed but the process died before the truncate: the
    /// journal wedged whole. Recovery from (snapshot, full journal)
    /// reaches the same digest the truncated pair would.
    Wedged {
        /// The committed sealed snapshot, as the host persisted it.
        snapshot: SnapshotBlob,
        /// Watermark the snapshot covers.
        base_seq: u64,
    },
}

impl PrecursorServer {
    /// Compacts the journal: seals a snapshot covering the whole applied
    /// state, advances the trusted `counter` to commit it, and truncates
    /// the journal prefix behind the committed watermark. Two-phase:
    ///
    /// 1. **Tentative seal** at `counter.read() + 1` — the counter is NOT
    ///    advanced yet. Only the keys written since the last committed
    ///    snapshot are sealed, as a delta (or, past the fold limit, with
    ///    the chain folded into a new base). The host may damage what it
    ///    persists (`SnapshotSeal` fault); the enclave authenticates
    ///    exactly the bytes this cut wrote — the manifest and the part it
    ///    sealed, by tag, without decrypting them — and, on damage,
    ///    aborts with the previous snapshot still authoritative, the
    ///    journal whole and the dirty set intact
    ///    ([`CompactOutcome::Aborted`]). Recovery state is unchanged.
    /// 2. **Commit** — `counter.increment()` makes the new blob the only
    ///    unsealable snapshot.
    /// 3. **Truncate** through the [`HostSite::CompactTruncate`] crash
    ///    point. A damage verdict there models the process dying between
    ///    seal and truncate: the journal wedges untruncated
    ///    ([`CompactOutcome::Wedged`]), and recovery from the committed
    ///    snapshot plus the *whole* journal reaches the same digest the
    ///    truncated pair would.
    ///
    /// Only a quiescent journal compacts: nothing pending, every record
    /// committed (locally or by quorum), at least one record past the
    /// previous cut, and no staged catch-up still draining — until it
    /// drains, the epoch's base snapshot is unsealed and a cut would seal
    /// only the applied prefix. Anything else is
    /// [`CompactOutcome::Skipped`].
    pub fn compact_journal(&mut self, counter: &mut MonotonicCounter) -> CompactOutcome {
        self.compact_journal_via(counter, |_, _| {})
    }

    /// Adversarial hook: [`compact_journal`](Self::compact_journal) with
    /// the untrusted host's write of the tentative cut in the caller's
    /// hands. `host_write` gets the blob about to be persisted (after any
    /// `SnapshotSeal` fault) and the byte ranges this cut wrote — layout,
    /// never content — and may damage, truncate or extend it at will; a
    /// write copies only the part it lands in.
    pub fn compact_journal_via(
        &mut self,
        counter: &mut MonotonicCounter,
        host_write: impl FnOnce(&mut SnapshotBlob, &[Range<usize>]),
    ) -> CompactOutcome {
        let Some(d) = self.durability.as_ref() else {
            return CompactOutcome::Skipped;
        };
        if d.failed
            || self.in_catchup()
            || d.journal.pending_records() > 0
            || d.journal.last_seq() == d.journal.log().base_seq()
            || d.committed_seq < d.journal.last_seq()
        {
            return CompactOutcome::Skipped;
        }
        let upto = d.committed_seq;
        let version = counter.read() + 1;
        let key = GcmKey::new(&self.sealing_key());
        let cut = self.snapshot_at(&key, version);
        let persisted = self.persist(&cut, host_write);
        if !cut.persisted_intact(&key, version, &persisted) {
            self.obs.inc("journal.compaction_aborts", 1);
            self.trace("journal", "compact_abort", upto, 0);
            return CompactOutcome::Aborted;
        }
        let _ = counter.increment();
        self.commit_snapshot(version, cut);
        let durable_len = self.journal().map_or(0, |j| j.durable().len());
        let verdict = match &self.host {
            Some(host) => plock(host).on_durable_write(HostSite::CompactTruncate, durable_len),
            None => DurableVerdict::Complete,
        };
        let d = self.durability.as_mut().expect("checked above");
        if !matches!(verdict, DurableVerdict::Complete) {
            d.failed = true;
            self.obs.inc("journal.compaction_wedges", 1);
            self.trace("journal", "compact_wedge", upto, 0);
            return CompactOutcome::Wedged {
                snapshot: persisted,
                base_seq: upto,
            };
        }
        let truncated_records = d.journal.truncate_prefix(upto);
        let base_seq = d.journal.log().base_seq();
        self.obs.inc("journal.compactions", 1);
        self.obs.inc("journal.truncated_records", truncated_records);
        self.trace("journal", "compact", upto, truncated_records);
        CompactOutcome::Compacted {
            snapshot: persisted,
            truncated_records,
            base_seq,
        }
    }

    fn snapshot_header(&self) -> SnapshotHeader {
        SnapshotHeader {
            mode: self.config.mode,
            storage_key: self.store.storage_key.clone(),
            storage_seq: self.store.storage_seq,
            mutation_seq: self.store.mutation_seq,
            state_digest: self.store.state_digest,
            // Every at-most-once window and connection epoch rides along —
            // recovered ones of clients not yet re-attested too, so a second
            // failover keeps them — so a restarted server re-acknowledges
            // (never re-executes or rejects) requests in flight at the crash,
            // and reconnecting clients get a strictly increasing epoch.
            sessions: self.sessions.windows().copied().collect(),
            // Journal watermark: recovery replays only records past it.
            journal_epoch: self.journal().map_or(0, Journal::epoch),
            journal_seq: self.journal().map_or(0, Journal::last_seq),
            journal_chain: self
                .journal()
                .map_or_else(|| precursor_journal::genesis_chain(0), Journal::chain),
        }
    }

    // Seals at an explicit `version` without touching any counter — the
    // tentative first phase of journal compaction, which advances the
    // trusted counter only after the persisted bytes validate (so a
    // host-damaged seal aborts with the previous snapshot still
    // authoritative). The one seal path, one RNG draw whatever it seals.
    // With a committed cut to carry from, the cut seals the dirty keys as
    // a delta (`StoreExec::encode_delta`) and carries that cut's parts, or
    // — when the delta would take the chain past `FOLD_PERCENT` of the base
    // — folds the chain and the delta into a new base; with none — the
    // first cut, or a previous cut whose manifest (or, folding, any part)
    // no longer authenticates — the table is walked into a new base. The
    // dirty set is left alone — `commit_snapshot` empties it — so a cut
    // that is never committed is simply retried.
    pub(crate) fn snapshot_at(&mut self, key: &GcmKey, version: u64) -> Cut {
        let header = self.snapshot_header();
        let drawn = Nonce12::generate(&mut self.rng);
        let mode = self.config.mode;
        // The last committed blob sits in host memory like any sealed
        // bytes: its manifest, and every part a fold reads, is
        // authenticated again before use.
        let previous = self
            .last_snapshot
            .as_ref()
            .and_then(|(at, blob)| PreviousCut::open(key, *at, blob).ok());
        let (mut carried, mut fresh) = (None, None);
        if let (Some(previous), Some(dirty)) = (&previous, &self.store.dirty) {
            let mut delta = Vec::new();
            self.encode_records(dirty.iter(), &mut delta);
            if previous.fits(delta.len()) {
                carried = Some(previous);
                fresh = (!delta.is_empty()).then_some(delta);
            } else if let Ok(base) = previous.fold(key, &delta) {
                self.obs.inc("snapshot.folds", 1);
                fresh = Some(base);
            }
        }
        if carried.is_none() && fresh.is_none() {
            self.obs.inc("snapshot.table_walks", 1);
            fresh = Some(self.store.encode_base(mode));
        }
        let cut = snapshot::seal(key, version, &drawn, &header, carried, fresh);
        self.obs.inc("snapshot.bytes_sealed", cut.bytes_sealed);
        self.obs.inc("snapshot.bytes_carried", cut.bytes_carried);
        cut
    }

    // The untrusted host's write of `cut`. Its copy shares every part of
    // the sealed blob; a `SnapshotSeal` fault, then `host_write` (handed
    // the byte ranges this cut wrote), may damage it, and a write copies
    // only the part it lands in — counted in `snapshot.bytes_copied`.
    pub(crate) fn persist(
        &mut self,
        cut: &Cut,
        host_write: impl FnOnce(&mut SnapshotBlob, &[Range<usize>]),
    ) -> SnapshotBlob {
        let written = cut.written();
        let mut persisted = cut.blob.clone();
        self.apply_seal_fault(&mut persisted, &written);
        host_write(&mut persisted, &written);
        let copied = persisted.unshared_bytes(&cut.blob);
        self.obs.inc("snapshot.bytes_copied", copied);
        persisted
    }

    // The commit point of a cut (the caller has advanced the counter to
    // `version`): it becomes the cut the next one carries from, and only
    // now is the dirty set emptied.
    pub(crate) fn commit_snapshot(&mut self, version: u64, cut: Cut) {
        self.last_snapshot = Some((version, cut.blob));
        self.store.dirty = Some(DirtyKeys::default());
    }

    /// The last committed snapshot as the enclave sealed it — with the
    /// durable journal, what a restart recovers from — or `None` before
    /// the first [`snapshot`](Self::snapshot) or compaction. The host's
    /// persisted copy that compaction returns shares every part of it the
    /// host did not write to.
    pub fn committed_snapshot(&self) -> Option<&SnapshotBlob> {
        self.last_snapshot.as_ref().map(|(_, blob)| blob)
    }

    // Routes a snapshot seal through the host's durable-write site. The durable
    // write is the `written` ranges of `blob` in order (what this cut
    // sealed; the rest was already on disk): a crash mid-write tears the
    // blob at the byte the write had reached, a corrupting host flips one
    // of the written bits.
    fn apply_seal_fault(&self, blob: &mut SnapshotBlob, written: &[Range<usize>]) {
        let Some(host) = &self.host else {
            return;
        };
        let total: usize = written.iter().map(|r| r.len()).sum();
        // Blob offset of the `nth` written byte.
        let end = blob.len();
        let locate = |mut nth: usize| {
            for r in written {
                if nth < r.len() {
                    return r.start + nth;
                }
                nth -= r.len();
            }
            end
        };
        match plock(host).on_durable_write(HostSite::SnapshotSeal, total) {
            DurableVerdict::Complete => {}
            DurableVerdict::Torn(keep) => blob.truncate(locate(keep)),
            DurableVerdict::Corrupt(bit) => {
                if total > 0 {
                    let b = bit % (total * 8);
                    blob[locate(b / 8)] ^= 1 << (b % 8);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use precursor_journal::GroupCommitPolicy;
    use precursor_rdma::host::{HostFilter, HostMove, HostPlan};
    use precursor_sim::CostModel;

    use super::*;
    use crate::client::PrecursorClient;
    use crate::config::Config;

    const KEYS: u32 = 2_000;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    // A journaled server holding `KEYS` keys, its client, and the snapshot
    // counter after one committed (full) cut.
    fn cut_once() -> (PrecursorServer, PrecursorClient, MonotonicCounter) {
        let mut server = PrecursorServer::new(Config::default(), &CostModel::default());
        server.attach_journal(GroupCommitPolicy::immediate(), &mut MonotonicCounter::new());
        let mut client = PrecursorClient::connect(&mut server, 29).expect("connect");
        for i in 0..KEYS {
            client
                .put_sync(&mut server, &key(i), &[i as u8; 32])
                .expect("load");
        }
        let mut counter = MonotonicCounter::new();
        compact(&mut server, &mut counter);
        (server, client, counter)
    }

    fn compact(server: &mut PrecursorServer, counter: &mut MonotonicCounter) -> SnapshotBlob {
        match server.compact_journal(counter) {
            CompactOutcome::Compacted { snapshot, .. } => snapshot,
            other => panic!("cut must commit: {other:?}"),
        }
    }

    fn metric(server: &PrecursorServer, name: &str) -> u64 {
        server.metrics().counter(name)
    }

    fn shared(a: &SnapshotBlob, b: &SnapshotBlob) -> bool {
        let parts = a.parts().iter().zip(b.parts());
        a.parts().len() == b.parts().len() && parts.into_iter().all(|(a, b)| Arc::ptr_eq(a, b))
    }

    // Overwrites `keys` with a new value: at 1 100 of the `KEYS`, the next
    // cut's delta alone outgrows half the base, so it folds.
    fn write_past_the_fold(
        server: &mut PrecursorServer,
        client: &mut PrecursorClient,
        keys: Range<u32>,
    ) {
        for i in keys {
            client.put_sync(server, &key(i), &[0x5f; 32]).expect("put");
        }
    }

    #[test]
    fn consecutive_cuts_carry_the_chain_and_the_host_copy_shares_every_part() {
        let (mut server, mut client, mut counter) = cut_once();
        let first = server.committed_snapshot().expect("committed").clone();
        assert_eq!(
            first.parts().len(),
            2,
            "a walk seals the manifest and a base"
        );
        for i in 0..20 {
            client
                .put_sync(&mut server, &key(i * 97), &[0xee; 32])
                .expect("put");
        }
        let (sealed, carried) = (
            metric(&server, "snapshot.bytes_sealed"),
            metric(&server, "snapshot.bytes_carried"),
        );
        let host = compact(&mut server, &mut counter);
        let second = server.committed_snapshot().expect("committed");
        assert!(
            shared(&host, second),
            "the honest host copy is the sealed parts"
        );

        assert_eq!(second.parts().len(), 3, "the manifest, the base, one delta");
        assert!(
            Arc::ptr_eq(&first.parts()[1], &second.parts()[1]),
            "the base is the first cut's buffer"
        );
        let carried = metric(&server, "snapshot.bytes_carried") - carried;
        assert_eq!(carried, first.parts()[1].len() as u64);
        let sealed = metric(&server, "snapshot.bytes_sealed") - sealed;
        let delta = second.parts()[2].len() as u64;
        assert!(
            delta < sealed && sealed < delta + 512,
            "{sealed} for a {delta}-byte delta"
        );
        assert_eq!(metric(&server, "snapshot.bytes_copied"), 0);
    }

    #[test]
    fn a_corrupting_seal_fault_copies_the_one_part_it_damages() {
        let (mut server, mut client, counter) = cut_once();
        client
            .put_sync(&mut server, &key(7), &[1; 32])
            .expect("put");
        let seal = HostSite::SnapshotSeal;
        let plan = HostPlan::none().rule(seal, HostFilter::Any, HostMove::Corrupt, 1);
        server.set_host_plan(plan, 29);
        let key = GcmKey::new(&server.sealing_key());
        let version = counter.read() + 1;
        let cut = server.snapshot_at(&key, version);
        let persisted = server.persist(&cut, |_, _| {});

        let copied: Vec<u64> = (cut.blob.parts().iter().zip(persisted.parts()))
            .filter(|(s, p)| !Arc::ptr_eq(s, p))
            .map(|(s, _)| s.len() as u64)
            .collect();
        assert_eq!(copied.len(), 1, "one part copied, every other shared");
        assert_eq!(metric(&server, "snapshot.bytes_copied"), copied[0]);
        assert!(!cut.persisted_intact(&key, version, &persisted));
    }

    // The carried-entry rule: a key not written since the last committed cut
    // is sealed as that cut sealed it, even when the host flipped a bit of
    // its stored payload in between — whether its entry sits in the base,
    // or in a delta that a fold folds into a new base.
    #[test]
    fn a_cut_seals_a_clean_keys_entry_as_the_previous_cut_sealed_it() {
        let (mut server, mut client, mut counter) = cut_once();
        let (clean, carried) = (1, 2);
        client
            .put_sync(&mut server, &key(0), &[0xaa; 32])
            .expect("put");
        client
            .put_sync(&mut server, &key(carried), &[0xcc; 32])
            .expect("put");
        assert!(server.corrupt_stored_payload(&key(clean)));
        compact(&mut server, &mut counter);
        assert_eq!(server.committed_snapshot().expect("cut").parts().len(), 3);

        // `carried` now lives in the first delta; the host damages its
        // payload, and enough writes follow that the next cut folds.
        assert!(server.corrupt_stored_payload(&key(carried)));
        let folds = metric(&server, "snapshot.folds");
        write_past_the_fold(&mut server, &mut client, KEYS / 2 - 100..KEYS);
        let blob = compact(&mut server, &mut counter);
        assert_eq!(metric(&server, "snapshot.folds"), folds + 1);
        assert_eq!(blob.parts().len(), 2, "a fold leaves a base and no chain");

        let cost = CostModel::default();
        let mut restored =
            PrecursorServer::restore(Config::default(), &cost, &blob.to_vec(), &counter)
                .expect("restores");
        let mut reader = PrecursorClient::connect(&mut restored, 31).expect("reader");
        for (i, value) in [
            (clean, [clean as u8; 32]),
            (carried, [0xcc; 32]),
            (0, [0xaa; 32]),
        ] {
            assert_eq!(restored.audit_key(&key(i)), Some(true), "key {i}");
            let got = reader.get_sync(&mut restored, &key(i));
            assert_eq!(got.expect("the sealed value"), value, "key {i}");
        }
        let got = reader.get_sync(&mut restored, &key(KEYS - 1));
        assert_eq!(got.expect("a folded write"), [0x5f; 32]);
        assert_eq!(restored.len(), KEYS as usize);
        assert_eq!(reader.metrics().counter("client.verify_fail"), 0);
    }

    // A previous cut whose manifest no longer authenticates cannot be
    // carried from, nor one whose delta fails when a fold opens it: either
    // cut walks the table into a new base, commits, and restores.
    #[test]
    fn a_previous_cut_that_fails_to_authenticate_makes_the_cut_a_table_walk() {
        let (mut server, mut client, mut counter) = cut_once();
        let walks = metric(&server, "snapshot.table_walks");
        let cost = CostModel::default();
        let restores = |blob: &SnapshotBlob, counter: &MonotonicCounter, value: [u8; 32]| {
            let blob = blob.to_vec();
            let mut restored = PrecursorServer::restore(Config::default(), &cost, &blob, counter)
                .expect("restores");
            assert_eq!(restored.len(), KEYS as usize);
            let mut reader = PrecursorClient::connect(&mut restored, 33).expect("reader");
            let got = reader.get_sync(&mut restored, &key(0));
            assert_eq!(got.expect("the written value"), value);
        };

        client
            .put_sync(&mut server, &key(0), &[0xbb; 32])
            .expect("put");
        let (_, root) = server.last_snapshot.as_mut().expect("committed");
        root[20] ^= 1;
        let blob = compact(&mut server, &mut counter);
        assert_eq!(metric(&server, "snapshot.table_walks"), walks + 1);
        restores(&blob, &counter, [0xbb; 32]);

        // A delta on top of that base, damaged at rest; the next cut folds.
        client
            .put_sync(&mut server, &key(0), &[0xbc; 32])
            .expect("put");
        compact(&mut server, &mut counter);
        let (_, root) = server.last_snapshot.as_mut().expect("committed");
        let at = root.len() - 1;
        root[at] ^= 1;
        let folds = metric(&server, "snapshot.folds");
        write_past_the_fold(&mut server, &mut client, KEYS / 2 - 100..KEYS);
        let blob = compact(&mut server, &mut counter);
        assert_eq!(metric(&server, "snapshot.folds"), folds);
        assert_eq!(metric(&server, "snapshot.table_walks"), walks + 2);
        restores(&blob, &counter, [0xbc; 32]);
    }
}
