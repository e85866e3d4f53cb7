//! Simulated primary↔replica links for journal replication.
//!
//! A [`ReplicaLink`] wraps one reliable-connected [`QueuePair`] pair (the
//! primary holds endpoint *A*, the replica endpoint *B*) and layers the
//! fault geography replication cares about *above* the verbs transport, as
//! its [`LinkMode`]:
//!
//! * **lagging** — frames are held for a fixed number of pump ticks before
//!   being posted, modelling a replica whose acknowledgements trail the
//!   primary's group commits;
//! * **partitioned** — frames in either direction are silently discarded
//!   until the link heals, modelling a partitioned primary that keeps
//!   executing but can no longer reach a quorum;
//! * **crashed** — the replica endpoint is gone; frames are discarded and
//!   the link never heals.
//!
//! Frames that are released still travel through the real
//! [`post_send`](QueuePair::post_send)/[`recv`](QueuePair::recv) machinery
//! (RECVs are replenished per frame). The link's one setter,
//! [`set_mode`](ReplicaLink::set_mode), is the untrusted host's: a replica
//! group applies a [`HostMove::Link`](crate::host::HostMove::Link) made at
//! the primary host's [`Replica`](crate::host::HostSite::Replica) site. A
//! migration's shipments are faulted above the link, at the
//! [`MigrateShip`](crate::host::HostSite::MigrateShip) site of the source
//! node's [`Host`](crate::host::Host).
//!
//! Everything is deterministic: link modes are explicit state, holds are
//! measured in pump ticks, and no RNG is drawn by the link itself.

use std::collections::VecDeque;

use crate::qp::{connect_pair, QueuePair};

/// Health of a [`ReplicaLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkMode {
    /// Frames are released on the pump tick they were sent.
    Healthy,
    /// Frames are held for this many pump ticks before release.
    Lagging(u64),
    /// Frames are discarded until the link heals.
    Partitioned,
    /// The replica endpoint is dead; frames are discarded forever.
    Crashed,
}

/// Delivery counters for a link, for the metrics layer and audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames delivered primary → replica.
    pub delivered_to_replica: u64,
    /// Frames delivered replica → primary.
    pub delivered_to_primary: u64,
    /// Frames discarded by partition or crash.
    pub dropped: u64,
    /// Frames that were released at least one tick late.
    pub lagged: u64,
    /// Bytes delivered primary → replica: the posts of the primary's QP.
    pub bytes_to_replica: u64,
}

// A frame held above the QP until its release tick.
#[derive(Debug)]
struct Held {
    release_at: u64,
    sent_at: u64,
    to_replica: bool,
    bytes: Vec<u8>,
}

/// One simulated primary↔replica connection.
#[derive(Debug)]
pub struct ReplicaLink {
    primary: QueuePair,
    replica: QueuePair,
    mode: LinkMode,
    tick: u64,
    held: VecDeque<Held>,
    stats: LinkStats,
}

impl ReplicaLink {
    /// Connects a healthy link.
    pub fn new() -> ReplicaLink {
        let (primary, replica) = connect_pair(0);
        ReplicaLink {
            primary,
            replica,
            mode: LinkMode::Healthy,
            tick: 0,
            held: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    /// Current link mode.
    pub fn mode(&self) -> LinkMode {
        self.mode
    }

    /// Delivery counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            bytes_to_replica: self.primary.stats().bytes,
            ..self.stats
        }
    }

    /// Frames currently held above the transport (in-flight backlog).
    pub fn in_flight(&self) -> usize {
        self.held.len()
    }

    /// Puts the link in `mode`: future frames are held (`Lagging`),
    /// discarded (`Partitioned`, `Crashed`) or released on their tick
    /// (`Healthy`). A crash drops every held frame, and a crashed link
    /// keeps its mode forever.
    pub fn set_mode(&mut self, mode: LinkMode) {
        if self.mode == LinkMode::Crashed {
            return;
        }
        if mode == LinkMode::Crashed {
            self.held.clear();
        }
        self.mode = mode;
    }

    /// Whether the replica endpoint is alive.
    pub fn is_alive(&self) -> bool {
        self.mode != LinkMode::Crashed
    }

    fn enqueue(&mut self, to_replica: bool, bytes: &[u8]) {
        let hold = match self.mode {
            LinkMode::Partitioned | LinkMode::Crashed => {
                self.stats.dropped += 1;
                return;
            }
            LinkMode::Healthy => 0,
            LinkMode::Lagging(l) => l,
        };
        self.held.push_back(Held {
            release_at: self.tick + hold,
            sent_at: self.tick,
            to_replica,
            bytes: bytes.to_vec(),
        });
    }

    /// Queues a frame from the primary to the replica.
    pub fn send_to_replica(&mut self, bytes: &[u8]) {
        self.enqueue(true, bytes);
    }

    /// Queues a frame from the replica to the primary.
    pub fn send_to_primary(&mut self, bytes: &[u8]) {
        self.enqueue(false, bytes);
    }

    /// Advances the link one tick and posts every frame whose hold has
    /// expired through the underlying queue pair. Frames stay FIFO per
    /// direction. Returns how many frames were released.
    pub fn pump(&mut self) -> usize {
        let mut released = 0;
        let mut keep = VecDeque::with_capacity(self.held.len());
        while let Some(h) = self.held.pop_front() {
            if h.release_at > self.tick {
                keep.push_back(h);
                continue;
            }
            if h.release_at > h.sent_at {
                self.stats.lagged += 1;
            }
            let (from, to) = match h.to_replica {
                true => (&mut self.primary, &mut self.replica),
                false => (&mut self.replica, &mut self.primary),
            };
            to.post_recv();
            let sent = from.post_send(&h.bytes, false).is_ok();
            match (sent, h.to_replica) {
                (false, _) => self.stats.dropped += 1,
                (true, true) => self.stats.delivered_to_replica += 1,
                (true, false) => self.stats.delivered_to_primary += 1,
            }
            released += 1;
        }
        self.held = keep;
        self.tick += 1;
        released
    }

    /// Receives the next frame at the replica endpoint.
    pub fn recv_at_replica(&mut self) -> Option<Vec<u8>> {
        self.replica.recv()
    }

    /// Receives the next frame at the primary endpoint.
    pub fn recv_at_primary(&mut self) -> Option<Vec<u8>> {
        self.primary.recv()
    }
}

impl Default for ReplicaLink {
    fn default() -> ReplicaLink {
        ReplicaLink::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_link_delivers_in_order_same_tick() {
        let mut link = ReplicaLink::new();
        link.send_to_replica(b"seg-1");
        link.send_to_replica(b"seg-2");
        assert_eq!(link.pump(), 2);
        assert_eq!(link.recv_at_replica().unwrap(), b"seg-1");
        assert_eq!(link.recv_at_replica().unwrap(), b"seg-2");
        assert!(link.recv_at_replica().is_none());
        link.send_to_primary(b"ack");
        link.pump();
        assert_eq!(link.recv_at_primary().unwrap(), b"ack");
        assert_eq!(link.stats().delivered_to_replica, 2);
        assert_eq!(link.stats().delivered_to_primary, 1);
        assert_eq!(link.stats().bytes_to_replica, 10);
    }

    #[test]
    fn lagging_link_holds_frames_for_n_ticks() {
        let mut link = ReplicaLink::new();
        link.set_mode(LinkMode::Lagging(2));
        link.send_to_replica(b"late");
        assert_eq!(link.pump(), 0);
        assert_eq!(link.pump(), 0);
        assert!(link.recv_at_replica().is_none());
        assert_eq!(link.pump(), 1, "released on the tick the hold expires");
        assert_eq!(link.recv_at_replica().unwrap(), b"late");
        assert_eq!(link.stats().lagged, 1);
        link.set_mode(LinkMode::Healthy);
        link.send_to_replica(b"prompt");
        link.pump();
        assert_eq!(link.recv_at_replica().unwrap(), b"prompt");
    }

    #[test]
    fn partition_drops_until_heal_crash_drops_forever() {
        let mut link = ReplicaLink::new();
        link.set_mode(LinkMode::Partitioned);
        link.send_to_replica(b"lost");
        link.send_to_primary(b"lost-ack");
        link.pump();
        assert!(link.recv_at_replica().is_none());
        assert!(link.recv_at_primary().is_none());
        assert_eq!(link.stats().dropped, 2);
        link.set_mode(LinkMode::Healthy);
        link.send_to_replica(b"back");
        link.pump();
        assert_eq!(link.recv_at_replica().unwrap(), b"back");
        link.set_mode(LinkMode::Lagging(4));
        link.send_to_replica(b"held");
        assert_eq!(link.in_flight(), 1);
        link.set_mode(LinkMode::Crashed);
        assert_eq!(link.in_flight(), 0, "a crash drops held frames");
        assert!(!link.is_alive());
        link.set_mode(LinkMode::Healthy);
        assert!(!link.is_alive(), "a crashed replica never heals");
        link.send_to_replica(b"never");
        link.pump();
        assert!(link.recv_at_replica().is_none());
    }
}
