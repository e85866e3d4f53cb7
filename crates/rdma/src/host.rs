//! The untrusted host, modelled once: deterministic, seeded injection of
//! everything that happens outside the enclave.
//!
//! Precursor's threat model is one fully compromised host (§2.3). It loses
//! and corrupts one-sided WRITEs and errors queue pairs, kills the process
//! mid-way through a durable write (tearing or corrupting what lands), and
//! actively tampers with payload bytes it stores, replays, reorders and
//! duplicates reply records, serves a rolled-back snapshot, presents
//! forked views, and cuts off, rolls back or tampers with a replica. A
//! [`HostPlan`] scripts all of it as one list of exact one-shot rules and
//! one list of probabilistic rates, each a
//! `(site, filter, move, at | prob)`; a [`Host`] executes the plan against
//! the event streams the store generates ([`HostSite`]) and records every
//! move it makes in one audit log, so a chaos or byzantine harness can
//! assert each one ended in recovery, a typed error or a client-side
//! detection.
//!
//! The host is shared by the server's queue pairs (their WRITEs), its
//! durable writes, its reply emission, its untrusted payload memory and
//! its replicas' machines, and a cluster consults the source node's host
//! for each migration shipment. A move [`arm`](Host::arm)ed on a live host
//! fires on its site's next matching event, whichever of these the site
//! is. Rollback and fork attacks on the store itself are staged by the
//! harness (restoring stale snapshots, cloning counters) and recorded with
//! [`note_attack`](Host::note_attack), so the log covers every move.
//!
//! Two seeded streams keep each site family's schedule independent of the
//! other's: transport and durable sites draw from the seed, reply and
//! memory sites from `seed ^ 0xad`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use precursor_sim::rng::SimRng;

use crate::replica::LinkMode;

/// An event stream the host sits on. Each site counts its own events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostSite {
    /// A one-sided WRITE (ring frames and payloads travel this way).
    Write,
    /// A sealed snapshot being written to untrusted durable storage — the
    /// host can kill the process mid-write, leaving a torn blob.
    SnapshotSeal,
    /// A journal group-commit flush to untrusted durable storage — same
    /// mid-write kill surface as [`HostSite::SnapshotSeal`].
    JournalFlush,
    /// The prefix-truncation step of a journal compaction: the host kills
    /// the process *after* the snapshot sealed but *before* (or while) the
    /// journal prefix is cut. Any damage verdict at this site models that
    /// death — the snapshot and the whole journal both survive, so
    /// recovery must reach the same state digest either way.
    CompactTruncate,
    /// A cluster migration part being shipped from the source node to the
    /// destination. `Drop` models the source process dying mid-transfer
    /// (the part never lands whole, the migration aborts before its
    /// fence); `Corrupt` models tampering with the sealed part in transit
    /// (the destination's GCM open rejects it).
    MigrateShip,
    /// A reply record the server hands the host to post (`Replay`,
    /// `Reorder`, `Duplicate`).
    Reply,
    /// A server poll sweep: the host's chance to flip a bit of a live
    /// untrusted payload (`Tamper`).
    Sweep,
    /// A replica's machine (its link and its journal copy), once per
    /// replica per group pump: `Link`, `Rollback` and `Tamper` apply.
    Replica,
    /// A move the harness stages itself (`Rollback`, `Fork`); it has no
    /// event stream and is only logged.
    Staged,
}

impl HostSite {
    // Whether the site draws from the reply-and-memory stream.
    fn memory(self) -> bool {
        matches!(self, HostSite::Reply | HostSite::Sweep)
    }
}

/// Which events of a site a plan entry matches, and where a logged event
/// came from. Endpoint *A* of a queue pair is the first element its
/// constructor returns; Precursor wires the client as *A* and the server as
/// *B*, so `AtoB` hits requests and `BtoA` hits replies. Durable writes
/// originate at *A*; reply records and tampered payloads at their client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostFilter {
    /// Every event at the site; a rule's `at` counts them all.
    Any,
    /// Events endpoint A originated; a rule's `at` counts only those.
    AtoB,
    /// Events endpoint B originated; a rule's `at` counts only those.
    BtoA,
    /// Events of one client; a rule's `at` counts only those.
    Client(u32),
    /// Events of one replica of a group; a rule's `at` counts only those.
    Replica(u32),
}

impl HostFilter {
    fn matches(self, origin: HostFilter) -> bool {
        self == HostFilter::Any || self == origin
    }
}

/// What the host does to a matched event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostMove {
    /// Discard a WRITE silently; tear a durable write short.
    Drop,
    /// Flip one random bit of the delivered or persisted bytes.
    Corrupt,
    /// Transition the owning queue pair to the error state (a durable
    /// writer dies before its first byte).
    QpError,
    /// Flip a bit of a stored payload (or a replica's journal byte).
    Tamper,
    /// Substitute a stale captured reply record for a fresh one.
    Replay,
    /// Hold a reply record and swap it with the next one.
    Reorder,
    /// Deliver the newest reply record twice.
    Duplicate,
    /// Restart the store from a stale (rolled-back) snapshot. Staged, or
    /// at a replica: its journal shrinks while its acknowledgements stand.
    Rollback,
    /// Present diverged state to different clients. Staged.
    Fork,
    /// Put a replica's link in this mode: lag, partition, crash or heal it.
    Link(LinkMode),
}

impl HostMove {
    /// Whether the move is an active attack of a Byzantine host rather
    /// than a benign fault (a lost, flipped or errored WRITE, a torn
    /// durable write, a lagging, partitioned, crashed or healed link).
    pub fn is_attack(self) -> bool {
        use HostMove::*;
        !matches!(self, Drop | Corrupt | QpError | Link(_))
    }
}

// One plan entry: `when` is the 1-based event index of a rule or the
// per-event probability of a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry<T> {
    site: HostSite,
    filter: HostFilter,
    mv: HostMove,
    when: T,
}

/// A declarative host schedule: scripted rules checked first, then rates
/// in declaration order. At most one move fires per event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostPlan {
    rules: Vec<Entry<u64>>,
    rates: Vec<Entry<f64>>,
}

impl HostPlan {
    /// An empty plan: a merely *curious* host that injects nothing.
    pub fn none() -> HostPlan {
        HostPlan::default()
    }

    /// Adds a scripted one-shot rule firing on the `at`-th (1-based) event
    /// at `site` that `filter` counts.
    pub fn rule(mut self, site: HostSite, filter: HostFilter, mv: HostMove, at: u64) -> Self {
        self.rules.push(Entry {
            site,
            filter,
            mv,
            when: at,
        });
        self
    }

    /// Adds a rate firing on each event at `site` that `filter` matches
    /// with probability `prob`, drawn from the site's seeded stream.
    pub fn rate(mut self, site: HostSite, filter: HostFilter, mv: HostMove, prob: f64) -> Self {
        self.rates.push(Entry {
            site,
            filter,
            mv,
            when: prob.clamp(0.0, 1.0),
        });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.rates.is_empty()
    }

    /// Whether any entry is an attack ([`HostMove::is_attack`]).
    pub fn has_attacks(&self) -> bool {
        let rules = self.rules.iter().map(|r| r.mv);
        rules
            .chain(self.rates.iter().map(|r| r.mv))
            .any(HostMove::is_attack)
    }
}

/// One move the host made, as its audit log records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostAct {
    /// Event stream the move hit.
    pub site: HostSite,
    /// Where the event came from: [`HostFilter::AtoB`] or
    /// [`HostFilter::BtoA`] for transport and durable writes, the client
    /// (or replica) for reply records, tampered payloads, staged moves and
    /// replica events, [`HostFilter::Any`] when no client is known.
    pub origin: HostFilter,
    /// The move made.
    pub mv: HostMove,
    /// 1-based index of the event among all events at the site (staged
    /// moves: among the log's moves of the same kind).
    pub event: u64,
}

/// Verdict for a one-sided WRITE passed through the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Place the (possibly corrupted) bytes in peer memory.
    Deliver,
    /// The write is lost: bytes never land, yet posting reports success —
    /// the silent loss the client's deadline must catch.
    Drop,
    /// The QP transitions to the error state; the post fails.
    Error,
}

/// Verdict for a durable write (snapshot seal, journal flush, compaction
/// truncate, migration shipment) passed through the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableVerdict {
    /// Every byte reached durable storage.
    Complete,
    /// The process died mid-write: only the first `n` bytes landed.
    Torn(usize),
    /// All bytes landed but bit `i` of the write flipped.
    Corrupt(usize),
}

/// How many of each client's reply records the host keeps captured for
/// replays.
const CAPTURE_DEPTH: usize = 32;

#[derive(Debug, Default)]
struct ClientState {
    /// Captured reply records (offset discarded — only bytes are replayed).
    captured: VecDeque<Vec<u8>>,
    /// A record held back by a pending Reorder, with its original offset.
    held: Option<(usize, Vec<u8>)>,
}

impl ClientState {
    fn capture(&mut self, bytes: Vec<u8>) {
        self.captured.push_back(bytes);
        if self.captured.len() > CAPTURE_DEPTH {
            self.captured.pop_front();
        }
    }
}

/// Executes a [`HostPlan`] against every site. Deterministic: identical
/// plans + seeds + event streams make identical moves.
#[derive(Debug)]
pub struct Host {
    plan: HostPlan,
    // Moves armed on the live host: each fires on its site's next matching
    // event, ahead of the plan, and is then spent.
    armed: Vec<(HostSite, HostFilter, HostMove)>,
    // Transport and durable sites draw from `seed` ...
    rng: SimRng,
    // ... reply and memory sites from `seed ^ 0xad`.
    memory_rng: SimRng,
    totals: HashMap<HostSite, u64>,
    by_origin: HashMap<(HostSite, HostFilter), u64>,
    clients: Vec<ClientState>,
    // Live untrusted payload ranges eligible for tampering:
    // `(region_offset, len, client)`.
    payloads: Vec<(usize, usize, u32)>,
    log: Vec<HostAct>,
}

impl Host {
    /// Creates a host executing `plan` with randomness seeded from `seed`.
    pub fn new(plan: HostPlan, seed: u64) -> Host {
        Host {
            plan,
            armed: Vec::new(),
            rng: SimRng::seed_from(seed),
            memory_rng: SimRng::seed_from(seed ^ 0xad),
            totals: HashMap::new(),
            by_origin: HashMap::new(),
            clients: Vec::new(),
            payloads: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Convenience: a shareable host handle as queue pairs and the server
    /// hold it.
    pub fn shared(plan: HostPlan, seed: u64) -> Arc<Mutex<Host>> {
        Arc::new(Mutex::new(Host::new(plan, seed)))
    }

    /// The audit log of every move made so far, in order.
    pub fn log(&self) -> &[HostAct] {
        &self.log
    }

    /// Arms `mv` on the live host: it fires on the next event at `site`
    /// that `filter` matches, ahead of the plan, then is spent.
    pub fn arm(&mut self, site: HostSite, filter: HostFilter, mv: HostMove) {
        self.armed.push((site, filter, mv));
    }

    /// Drops every move armed at `site` that has not fired.
    pub fn disarm(&mut self, site: HostSite) {
        self.armed.retain(|&(s, _, _)| s != site);
    }

    /// Records a harness-staged move (rollback, fork) in the audit log, so
    /// every move flows through the one log.
    pub fn note_attack(&mut self, mv: HostMove, client: Option<u32>) {
        let event = self.log.iter().filter(|a| a.mv == mv).count() as u64 + 1;
        let origin = client.map_or(HostFilter::Any, HostFilter::Client);
        self.log.push(HostAct {
            site: HostSite::Staged,
            origin,
            mv,
            event,
        });
    }

    /// Registers a live untrusted payload range the host could tamper with.
    pub fn note_payload(&mut self, offset: usize, len: usize, client: u32) {
        self.forget_payload(offset);
        if len > 0 {
            self.payloads.push((offset, len, client));
        }
    }

    /// Unregisters a payload range (freed or overwritten).
    pub fn forget_payload(&mut self, offset: usize) {
        self.payloads.retain(|&(off, _, _)| off != offset);
    }

    fn client_state(&mut self, client: u32) -> &mut ClientState {
        let idx = client as usize;
        if self.clients.len() <= idx {
            self.clients.resize_with(idx + 1, ClientState::default);
        }
        &mut self.clients[idx]
    }

    // The one pick: counts the event at `site` (in total and for its
    // origin), then an armed move, the first matching rule, or the rates —
    // every matching rate draws, hit or not, so the stream is independent
    // of earlier hits and replays stay stable under plan tweaks.
    fn pick(&mut self, site: HostSite, origin: HostFilter) -> Option<HostMove> {
        let total = *self.totals.entry(site).and_modify(|c| *c += 1).or_insert(1);
        let own = *self
            .by_origin
            .entry((site, origin))
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let matched = |s: HostSite, f: HostFilter| s == site && f.matches(origin);
        let armed = self.armed.iter().position(|&(s, f, _)| matched(s, f));
        let mut hit = armed.map(|i| self.armed.remove(i).2);
        if hit.is_none() {
            let count = |f: HostFilter| if f == HostFilter::Any { total } else { own };
            let rule = self.plan.rules.iter();
            hit = rule
                .filter(|r| matched(r.site, r.filter))
                .find(|r| count(r.filter) == r.when)
                .map(|r| r.mv);
        }
        if hit.is_none() {
            let rng = if site.memory() {
                &mut self.memory_rng
            } else {
                &mut self.rng
            };
            for r in self.plan.rates.iter().filter(|r| matched(r.site, r.filter)) {
                let fire = rng.gen_bool(r.when);
                if fire && hit.is_none() {
                    hit = Some(r.mv);
                }
            }
        }
        if let Some(mv) = hit {
            self.log.push(HostAct {
                site,
                origin,
                mv,
                event: total,
            });
        }
        hit
    }

    /// Passes a one-sided WRITE through the host, possibly corrupting the
    /// bytes in place.
    pub fn on_write(&mut self, from_a: bool, data: &mut [u8]) -> WriteVerdict {
        let origin = if from_a {
            HostFilter::AtoB
        } else {
            HostFilter::BtoA
        };
        match self.pick(HostSite::Write, origin) {
            Some(HostMove::Drop) => WriteVerdict::Drop,
            Some(HostMove::Corrupt) if !data.is_empty() => {
                let pos = self.rng.gen_range(data.len() as u64) as usize;
                let bit = self.rng.gen_range(8) as u8;
                data[pos] ^= 1 << bit;
                WriteVerdict::Deliver
            }
            Some(HostMove::QpError) => WriteVerdict::Error,
            _ => WriteVerdict::Deliver,
        }
    }

    /// Passes a `len`-byte durable write through the host at `site`. `Drop`
    /// models the host killing the process mid-write: only a strict prefix
    /// of the bytes lands. `Corrupt` lands every byte but flips one bit.
    /// `QpError` kills the writer before the first byte: nothing lands.
    /// The stream is only drawn when a move fires (or a rate targets the
    /// site).
    pub fn on_durable_write(&mut self, site: HostSite, len: usize) -> DurableVerdict {
        debug_assert!(matches!(
            site,
            HostSite::SnapshotSeal
                | HostSite::JournalFlush
                | HostSite::CompactTruncate
                | HostSite::MigrateShip
        ));
        let mv = self.pick(site, HostFilter::AtoB);
        let mut draw = |bound: usize| match bound {
            0 => 0,
            n => self.rng.gen_range(n as u64) as usize,
        };
        match mv {
            // Strictly partial: at least the last byte is lost.
            Some(HostMove::Drop) => DurableVerdict::Torn(draw(len)),
            Some(HostMove::Corrupt) => DurableVerdict::Corrupt(draw(len * 8)),
            Some(HostMove::QpError) => DurableVerdict::Torn(0),
            _ => DurableVerdict::Complete,
        }
    }

    /// Called once per server poll sweep. When a Tamper fires, returns a
    /// `(region_offset, bit_index)` for the host to flip inside a live
    /// payload range; with nothing stored the attempt is logged but
    /// harmless.
    pub fn on_sweep(&mut self) -> Option<(usize, u32)> {
        if self.pick(HostSite::Sweep, HostFilter::Any)? != HostMove::Tamper
            || self.payloads.is_empty()
        {
            return None;
        }
        let idx = self.memory_rng.gen_range(self.payloads.len() as u64) as usize;
        let (offset, len, client) = self.payloads[idx];
        let byte = self.memory_rng.gen_range(len as u64) as usize;
        let bit = self.memory_rng.gen_range(8) as u32;
        if let Some(last) = self.log.last_mut() {
            last.origin = HostFilter::Client(client);
        }
        Some((offset + byte, bit))
    }

    /// Passes one freshly encoded reply record (its ring writes) through the
    /// host. `writes` are the `(ring_offset, bytes)` chunks of a single
    /// record as the server would post them; the returned list is what the
    /// host actually posts. Replay substitutes a stale captured record of
    /// the same length, Duplicate posts the newest twice, Reorder holds the
    /// record and releases it swapped with the next same-length record.
    pub fn on_reply_record(
        &mut self,
        client: u32,
        writes: Vec<(usize, Vec<u8>)>,
    ) -> Vec<(usize, Vec<u8>)> {
        // Only single-chunk records (no ring wrap mid-record) are attacked:
        // splicing a differently-wrapped record would tear framing rather
        // than model a syntactically valid substitution.
        let single = writes.len() == 1;
        let (fresh_off, fresh_bytes) = match &writes[..] {
            [(off, bytes)] => (*off, bytes.clone()),
            _ => (0, Vec::new()),
        };
        let choice = self.pick(HostSite::Reply, HostFilter::Client(client));

        let state = self.client_state(client);
        // A previously held record is released in front of whatever happens
        // now, swapped into the fresh record's slot when lengths permit.
        let mut out: Vec<(usize, Vec<u8>)> = Vec::new();
        if let Some((held_off, held_bytes)) = state.held.take() {
            if single && held_bytes.len() == fresh_bytes.len() {
                // Swap: fresh record lands where the held one lived and
                // vice versa — both eventually arrive, out of order.
                out.push((held_off, fresh_bytes.clone()));
                out.push((fresh_off, held_bytes));
                if !fresh_bytes.is_empty() {
                    state.capture(fresh_bytes);
                }
                return out;
            }
            // Lengths differ (or record is multi-chunk): release the held
            // record in place, then continue with the fresh one.
            out.push((held_off, held_bytes));
        }

        match choice {
            Some(HostMove::Replay) if single => {
                let stale = state.captured.iter().find(|c| c.len() == fresh_bytes.len());
                // Nothing captured of a compatible shape: the attack
                // degrades to honest delivery (still logged).
                match stale {
                    Some(stale) => out.push((fresh_off, stale.clone())),
                    None => out.extend(writes),
                }
            }
            Some(HostMove::Reorder) if single => {
                state.held = Some((fresh_off, fresh_bytes.clone()))
            }
            Some(HostMove::Duplicate) if single => {
                out.push((fresh_off, fresh_bytes.clone()));
                out.push((fresh_off, fresh_bytes.clone()));
            }
            _ => out.extend(writes),
        }
        if single && !fresh_bytes.is_empty() {
            state.capture(fresh_bytes);
        }
        out
    }

    /// The move the host makes on replica `replica`'s machine, if any.
    pub fn on_replica(&mut self, replica: u32) -> Option<HostMove> {
        self.pick(HostSite::Replica, HostFilter::Replica(replica))
    }

    /// Releases any record still held for `client` (e.g. before the client
    /// reconnects) so a pending Reorder cannot outlive the session.
    pub fn release_held(&mut self, client: u32) -> Option<(usize, Vec<u8>)> {
        self.client_state(client).held.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use HostFilter::{Any, AtoB, BtoA};
    use HostMove::*;
    use HostSite::*;

    fn record(off: usize, fill: u8, len: usize) -> Vec<(usize, Vec<u8>)> {
        vec![(off, vec![fill; len])]
    }

    fn host(plan: HostPlan, seed: u64) -> Host {
        Host::new(plan, seed)
    }

    fn moves(h: &Host) -> Vec<HostMove> {
        h.log().iter().map(|a| a.mv).collect()
    }

    #[test]
    fn empty_plan_never_injects() {
        let mut h = host(HostPlan::none(), 1);
        for i in 0..100u8 {
            let mut d = vec![i];
            assert_eq!(h.on_write(i % 2 == 0, &mut d), WriteVerdict::Deliver);
            assert_eq!(d, vec![i]);
            assert_eq!(
                h.on_durable_write(JournalFlush, 64),
                DurableVerdict::Complete
            );
        }
        assert!(h.log().is_empty());
    }

    #[test]
    fn empty_plan_is_honest() {
        let mut h = host(HostPlan::none(), 1);
        for i in 0..50u8 {
            let w = record(i as usize * 8, i, 16);
            assert_eq!(h.on_reply_record(0, w.clone()), w);
            assert_eq!(h.on_sweep(), None);
        }
        assert!(h.log().is_empty());
    }

    #[test]
    fn scripted_rule_fires_on_exact_event() {
        let mut h = host(HostPlan::none().rule(Write, AtoB, Drop, 3), 7);
        let verdicts: Vec<_> = (0..5).map(|_| h.on_write(true, &mut [0u8; 4])).collect();
        use WriteVerdict::{Deliver, Drop as Lost};
        assert_eq!(verdicts, vec![Deliver, Deliver, Lost, Deliver, Deliver]);
        assert_eq!(moves(&h), vec![Drop]);
    }

    #[test]
    fn directional_rules_count_per_direction() {
        let mut h = host(HostPlan::none().rule(Write, BtoA, Drop, 2), 7);
        let mut d = vec![1u8];
        // A→B events do not advance the B→A counter.
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(h.on_write(false, &mut d), WriteVerdict::Deliver);
        assert_eq!(h.on_write(false, &mut d), WriteVerdict::Drop);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let mut h = host(HostPlan::none().rule(Write, Any, Corrupt, 1), 3);
        let mut d = vec![0u8; 32];
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(d.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn qp_error_action_fails_only_its_write() {
        let mut h = host(HostPlan::none().rule(Write, Any, QpError, 2), 5);
        let mut d = vec![0u8];
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Error);
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
    }

    #[test]
    fn durable_write_faults_tear_and_corrupt() {
        let plan =
            HostPlan::none()
                .rule(JournalFlush, Any, Drop, 2)
                .rule(SnapshotSeal, Any, Corrupt, 1);
        let mut h = host(plan, 9);
        assert_eq!(
            h.on_durable_write(JournalFlush, 64),
            DurableVerdict::Complete
        );
        match h.on_durable_write(JournalFlush, 64) {
            DurableVerdict::Torn(n) => assert!(n < 64, "torn write keeps a strict prefix"),
            v => panic!("expected torn, got {v:?}"),
        }
        match h.on_durable_write(SnapshotSeal, 8) {
            DurableVerdict::Corrupt(bit) => assert!(bit < 64),
            v => panic!("expected corrupt, got {v:?}"),
        }
        assert_eq!(h.log().len(), 2);
    }

    #[test]
    fn sites_have_independent_counters() {
        // A Write rule fires on neither a journal flush nor a reply record,
        // and neither advances the Write counter.
        let mut h = host(HostPlan::none().rule(Write, Any, Drop, 2), 9);
        let mut d = vec![0u8; 4];
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(
            h.on_durable_write(JournalFlush, 32),
            DurableVerdict::Complete
        );
        assert_eq!(h.on_reply_record(0, record(0, 1, 8)).len(), 1);
        assert_eq!(h.on_sweep(), None);
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Drop);
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let drops = |seed| {
            let mut h = host(HostPlan::none().rate(Write, Any, Drop, 0.3), seed);
            let hit = |_| h.on_write(true, &mut [0u8; 8]) == WriteVerdict::Drop;
            (0..200).map(hit).collect::<Vec<_>>()
        };
        assert_eq!(drops(11), drops(11));
        assert_ne!(
            drops(11),
            drops(12),
            "different seeds give different schedules"
        );
        let n = drops(11).iter().filter(|&&d| d).count();
        assert!((30..90).contains(&n), "~30% of 200, got {n}");
    }

    #[test]
    fn reply_rates_are_deterministic_per_seed() {
        let replays = |seed| {
            let mut h = host(HostPlan::none().rate(Reply, Any, Replay, 0.3), seed);
            let out = |i: usize| h.on_reply_record(0, record(i * 8, i as u8, 8));
            (0..100).map(out).collect::<Vec<_>>()
        };
        assert_eq!(replays(11), replays(11));
        assert_ne!(replays(11), replays(12));
    }

    #[test]
    fn first_matching_rule_wins_over_rates() {
        let plan = HostPlan::none()
            .rule(Write, Any, Corrupt, 1)
            .rate(Write, Any, Drop, 1.0);
        let mut h = host(plan, 1);
        let mut d = vec![0u8; 4];
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_ne!(d, vec![0u8; 4], "corrupted, not dropped");
        assert_eq!(
            h.on_write(true, &mut d),
            WriteVerdict::Drop,
            "rate applies after"
        );
    }

    #[test]
    fn armed_move_fires_on_the_next_matching_event_once() {
        let mut h = host(HostPlan::none(), 1);
        let mut d = vec![0u8; 4];
        assert_eq!(h.on_write(true, &mut d), WriteVerdict::Deliver);
        h.arm(Write, BtoA, Drop);
        assert_eq!(
            h.on_write(true, &mut d),
            WriteVerdict::Deliver,
            "filter skips A→B"
        );
        assert_eq!(h.on_write(false, &mut d), WriteVerdict::Drop);
        assert_eq!(h.on_write(false, &mut d), WriteVerdict::Deliver, "spent");
        h.arm(SnapshotSeal, Any, Drop);
        h.disarm(SnapshotSeal);
        assert_eq!(
            h.on_durable_write(SnapshotSeal, 8),
            DurableVerdict::Complete
        );
        let act = HostAct {
            site: Write,
            origin: BtoA,
            mv: Drop,
            event: 3,
        };
        assert_eq!(h.log(), [act]);
    }

    #[test]
    fn one_host_logs_faults_and_attacks_in_order() {
        let plan = HostPlan::none()
            .rule(Reply, Any, Duplicate, 1)
            .rule(Write, AtoB, Drop, 2);
        let mut h = host(plan, 4);
        assert_eq!(h.on_write(true, &mut [0u8; 4]), WriteVerdict::Deliver);
        assert_eq!(h.on_write(true, &mut [0u8; 4]), WriteVerdict::Drop);
        assert_eq!(h.on_reply_record(3, record(8, 5, 8)).len(), 2);
        assert_eq!(moves(&h), vec![Drop, Duplicate]);
        let attack: Vec<bool> = h.log().iter().map(|a| a.mv.is_attack()).collect();
        assert_eq!(attack, vec![false, true]);
        assert_eq!(h.log()[1].origin, HostFilter::Client(3));
    }

    #[test]
    fn replay_substitutes_oldest_compatible_capture() {
        let mut h = host(HostPlan::none().rule(Reply, Any, Replay, 3), 7);
        assert_eq!(h.on_reply_record(0, record(0, 1, 16)), record(0, 1, 16));
        assert_eq!(h.on_reply_record(0, record(16, 2, 16)), record(16, 2, 16));
        // third record is replaced by the oldest captured one
        assert_eq!(h.on_reply_record(0, record(32, 3, 16)), record(32, 1, 16));
        assert_eq!(moves(&h), vec![Replay]);
    }

    #[test]
    fn replay_with_no_capture_degrades_to_delivery() {
        let mut h = host(HostPlan::none().rule(Reply, Any, Replay, 1), 7);
        assert_eq!(h.on_reply_record(0, record(0, 9, 8)), record(0, 9, 8));
        assert_eq!(h.log().len(), 1, "the attempt is still logged");
    }

    #[test]
    fn reorder_swaps_adjacent_records() {
        let mut h = host(HostPlan::none().rule(Reply, Any, Reorder, 1), 7);
        // first record is held ...
        assert!(h.on_reply_record(0, record(0, 1, 16)).is_empty());
        // ... and released swapped with the second
        assert_eq!(
            h.on_reply_record(0, record(16, 2, 16)),
            vec![(0, vec![2u8; 16]), (16, vec![1u8; 16])]
        );
    }

    #[test]
    fn held_record_with_mismatched_length_is_released_in_place() {
        let mut h = host(HostPlan::none().rule(Reply, Any, Reorder, 1), 7);
        assert!(h.on_reply_record(0, record(0, 1, 16)).is_empty());
        assert_eq!(
            h.on_reply_record(0, record(16, 2, 24)),
            vec![(0, vec![1u8; 16]), (16, vec![2u8; 24])]
        );
    }

    #[test]
    fn duplicate_posts_twice() {
        let mut h = host(HostPlan::none().rule(Reply, Any, Duplicate, 1), 7);
        assert_eq!(
            h.on_reply_record(3, record(8, 5, 8)),
            vec![(8, vec![5u8; 8]), (8, vec![5u8; 8])]
        );
    }

    #[test]
    fn per_client_rules_count_that_clients_records_only() {
        let plan = HostPlan::none().rule(Reply, HostFilter::Client(2), Duplicate, 2);
        let mut h = host(plan, 7);
        assert_eq!(h.on_reply_record(1, record(0, 1, 8)).len(), 1);
        assert_eq!(h.on_reply_record(2, record(0, 1, 8)).len(), 1);
        assert_eq!(h.on_reply_record(1, record(8, 2, 8)).len(), 1);
        // client 2's *second* record fires
        assert_eq!(h.on_reply_record(2, record(8, 2, 8)).len(), 2);
    }

    #[test]
    fn tamper_picks_inside_registered_payload() {
        let mut h = host(HostPlan::none().rule(Sweep, Any, Tamper, 2), 9);
        h.note_payload(1000, 64, 4);
        assert_eq!(h.on_sweep(), None, "fires on sweep 2");
        let (off, bit) = h.on_sweep().expect("tamper pick");
        assert!((1000..1064).contains(&off));
        assert!(bit < 8);
        assert_eq!(h.log()[0].origin, HostFilter::Client(4));
    }

    #[test]
    fn tamper_with_no_payloads_is_logged_but_harmless() {
        let mut h = host(HostPlan::none().rule(Sweep, Any, Tamper, 1), 9);
        assert_eq!(h.on_sweep(), None);
        assert_eq!(h.log().len(), 1);
        assert_eq!(h.log()[0].origin, Any);
    }

    #[test]
    fn forgotten_payloads_are_not_tampered() {
        let mut h = host(HostPlan::none().rate(Sweep, Any, Tamper, 1.0), 9);
        h.note_payload(0, 32, 1);
        h.forget_payload(0);
        assert_eq!(h.on_sweep(), None);
    }

    #[test]
    fn staged_moves_are_numbered_per_move() {
        let mut h = host(HostPlan::none(), 1);
        h.note_attack(Rollback, None);
        h.note_attack(Fork, Some(3));
        h.note_attack(Fork, Some(4));
        assert_eq!(h.log().len(), 3);
        let last = HostAct {
            site: Staged,
            origin: HostFilter::Client(4),
            mv: Fork,
            event: 2,
        };
        assert_eq!(h.log()[2], last, "per-move event numbering");
    }

    #[test]
    fn replica_origins_are_counted_per_replica() {
        let partition = Link(LinkMode::Partitioned);
        let plan = HostPlan::none().rule(Replica, HostFilter::Replica(1), partition, 2);
        let mut h = host(plan, 1);
        assert_eq!(h.on_replica(0), None);
        assert_eq!(h.on_replica(1), None);
        assert_eq!(h.on_replica(0), None, "replica 0 does not count for 1");
        assert_eq!(h.on_replica(1), Some(partition));
        let act = HostAct {
            site: Replica,
            origin: HostFilter::Replica(1),
            mv: partition,
            event: 4,
        };
        assert_eq!(h.log(), [act]);
    }

    #[test]
    fn armed_link_move_fires_once() {
        let mut h = host(HostPlan::none(), 1);
        h.arm(Replica, HostFilter::Replica(0), Link(LinkMode::Lagging(3)));
        assert_eq!(h.on_replica(1), None, "filter skips replica 1");
        assert_eq!(h.on_replica(0), Some(Link(LinkMode::Lagging(3))));
        assert_eq!(h.on_replica(0), None, "spent");
        assert_eq!(h.log().len(), 1);
    }

    #[test]
    fn link_moves_are_benign_replica_log_moves_attacks() {
        let modes = [
            LinkMode::Healthy,
            LinkMode::Lagging(6),
            LinkMode::Partitioned,
            LinkMode::Crashed,
        ];
        assert!(modes.iter().all(|&m| !Link(m).is_attack()));
        assert!(Rollback.is_attack() && Tamper.is_attack());
    }

    #[test]
    fn release_held_drains_pending_reorder() {
        let mut h = host(HostPlan::none().rule(Reply, Any, Reorder, 1), 7);
        assert!(h.on_reply_record(0, record(0, 1, 16)).is_empty());
        assert_eq!(h.release_held(0), Some((0, vec![1u8; 16])));
        assert!(h.release_held(0).is_none());
    }
}
