//! The cluster-aware client facade: one [`PrecursorClient`] session per
//! node (created lazily), routed through a [`LocationCache`].
//!
//! Redirect handling is the at-most-once-safe retry: a sealed
//! [`NotMine`](crate::wire::Status::NotMine) completion consumed its `oid` on the stale node
//! without executing, and the retry is a *fresh* `oid` on the owner's
//! independent session — so no per-node window is ever violated, and an
//! operation executes at most once cluster-wide.

use crate::client::PrecursorClient;
use crate::config::RetryPolicy;
use crate::error::StoreError;
use crate::wire::Opcode;
use crate::CompletedOp;
use precursor_obs::MetricsRegistry;
use precursor_sim::meter::Meter;

use super::{decode_owner_hint, LocationCache, PrecursorCluster};

/// A redirect chain longer than this means routing is livelocked (every
/// hop disagrees); callers surface it instead of spinning.
pub const MAX_REDIRECTS: usize = 4;

/// Routing counters for one [`ClusterClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Requests routed, one per node visited: a redirected operation
    /// counts once at the stale node and once at the owner.
    pub ops: u64,
    /// Sealed `NotMine` redirects received (stale-cache hits).
    pub redirects: u64,
    /// Ring snapshots re-fetched from the metadata service after a
    /// redirect proved the cache stale.
    pub refreshes: u64,
}

/// A client of the whole cluster: per-node sessions behind one routing
/// facade. See the [module docs](super).
#[derive(Debug)]
pub struct ClusterClient {
    base_seed: u64,
    sessions: Vec<Option<PrecursorClient>>,
    cache: LocationCache,
    stats: RouteStats,
    retry: Option<RetryPolicy>,
    trace_cap: Option<usize>,
}

impl ClusterClient {
    /// Connects to the cluster: fetches the initial ring snapshot and
    /// eagerly attests to node 0 (with `seed` itself, so a nodes=1 cluster
    /// run is bit-identical to a standalone `PrecursorClient::connect`);
    /// sessions to other nodes are attested lazily on first route.
    ///
    /// # Errors
    ///
    /// Attestation failures from the node-0 connect.
    pub fn connect(cluster: &mut PrecursorCluster, seed: u64) -> Result<ClusterClient, StoreError> {
        let mut sessions: Vec<Option<PrecursorClient>> =
            (0..cluster.node_count()).map(|_| None).collect();
        let mut cache = LocationCache::new();
        cache.learn(cluster.meta().snapshot());
        sessions[0] = Some(PrecursorClient::connect(cluster.node_mut(0), seed)?);
        Ok(ClusterClient {
            base_seed: seed,
            sessions,
            cache,
            stats: RouteStats::default(),
            retry: None,
            trace_cap: None,
        })
    }

    fn seed_for(&self, node: u16) -> u64 {
        // Node 0 uses the base seed verbatim (the nodes=1 determinism
        // pin); other nodes get independent streams.
        self.base_seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Enables client-side tracing on every session (current and future).
    pub fn enable_tracing(&mut self, cap: usize) {
        self.trace_cap = Some(cap);
        for s in self.sessions.iter_mut().flatten() {
            s.enable_tracing(cap);
        }
    }

    /// Sets the retry policy on every session (current and future).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
        for s in self.sessions.iter_mut().flatten() {
            s.set_retry_policy(policy);
        }
    }

    /// Routing counters.
    pub fn stats(&self) -> RouteStats {
        self.stats
    }

    /// Ensures a session to `node` exists (lazy attestation).
    ///
    /// # Errors
    ///
    /// Attestation failures from the underlying connect.
    fn ensure_session(
        &mut self,
        cluster: &mut PrecursorCluster,
        node: u16,
    ) -> Result<(), StoreError> {
        if self.sessions[node as usize].is_none() {
            let seed = self.seed_for(node);
            let mut s = PrecursorClient::connect(cluster.node_mut(node as usize), seed)?;
            if let Some(cap) = self.trace_cap {
                s.enable_tracing(cap);
            }
            if let Some(p) = self.retry {
                s.set_retry_policy(p);
            }
            self.sessions[node as usize] = Some(s);
        }
        Ok(())
    }

    /// The session to `node`, if one was attested.
    pub fn session_mut(&mut self, node: u16) -> Option<&mut PrecursorClient> {
        self.sessions[node as usize].as_mut()
    }

    /// Re-attests the session to `node` (after a node crash/recovery).
    ///
    /// # Errors
    ///
    /// Attestation failures from the underlying reconnect.
    pub fn reconnect_node(
        &mut self,
        cluster: &mut PrecursorCluster,
        node: u16,
    ) -> Result<(), StoreError> {
        if let Some(s) = self.sessions[node as usize].as_mut() {
            s.reconnect(cluster.node_mut(node as usize))?;
        }
        Ok(())
    }

    /// Handles a `NotMine` completion: counts it, refreshes the ring
    /// snapshot iff the sealed hint's epoch proves the cache stale (an
    /// older or equal epoch is a replayed pre-migration redirect —
    /// ignored), and returns the node the operation should be re-issued to
    /// (with a fresh oid). `None` for any other completion.
    pub fn note_redirect(&mut self, cluster: &PrecursorCluster, c: &CompletedOp) -> Option<u16> {
        Some(self.follow_hint(cluster, c.redirect?))
    }

    // `note_redirect` for the sealed owner hint of a redirect completion.
    pub(crate) fn follow_hint(&mut self, cluster: &PrecursorCluster, hint: u64) -> u16 {
        self.stats.redirects += 1;
        if self.cache.is_stale_for(hint) {
            self.cache.learn(cluster.meta().snapshot());
            self.stats.refreshes += 1;
        }
        decode_owner_hint(hint).1
    }

    // Routes `key`, attaches the owner's session if needed and posts the
    // request there: the one submit path under every public op.
    pub(crate) fn submit(
        &mut self,
        cluster: &mut PrecursorCluster,
        op: Opcode,
        key: &[u8],
        value: &[u8],
    ) -> Result<(u16, u64), StoreError> {
        self.stats.ops += 1;
        let node = self.cache.route(key).expect("connect learned a ring");
        self.ensure_session(cluster, node)?;
        let session = self.sessions[node as usize].as_mut().expect("ensured");
        let oid = match op {
            Opcode::Put => session.put(key, value),
            Opcode::Get => session.get(key),
            Opcode::Delete => session.delete(key),
        }?;
        Ok((node, oid))
    }

    // Executes one op at the owner, following sealed redirects with fresh
    // oids; returns the first completion that is not a redirect.
    fn op_sync(
        &mut self,
        cluster: &mut PrecursorCluster,
        op: Opcode,
        key: &[u8],
        value: &[u8],
    ) -> Result<CompletedOp, StoreError> {
        for _ in 0..MAX_REDIRECTS {
            let (node, oid) = self.submit(cluster, op, key, value)?;
            let session = self.sessions[node as usize].as_mut().expect("ensured");
            let group = cluster.group_mut(node as usize);
            let c = session.complete_with(|| group.pump(), oid)?;
            if self.note_redirect(cluster, &c).is_none() {
                return Ok(c);
            }
        }
        Err(StoreError::NotMine)
    }

    /// Cluster-routed put: route, execute at the owner, follow sealed
    /// redirects with fresh oids.
    ///
    /// # Errors
    ///
    /// As [`PrecursorClient::put_sync`], plus [`StoreError::NotMine`] if
    /// the redirect chain exceeds the retry bound.
    pub fn put_sync(
        &mut self,
        cluster: &mut PrecursorCluster,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StoreError> {
        self.op_sync(cluster, Opcode::Put, key, value)?.ack()
    }

    /// Cluster-routed get (verified value), following sealed redirects.
    ///
    /// # Errors
    ///
    /// As [`PrecursorClient::get_sync`], plus [`StoreError::NotMine`] if
    /// the redirect chain exceeds the retry bound.
    pub fn get_sync(
        &mut self,
        cluster: &mut PrecursorCluster,
        key: &[u8],
    ) -> Result<Vec<u8>, StoreError> {
        self.op_sync(cluster, Opcode::Get, key, &[])?.into_value()
    }

    /// Cluster-routed delete, following sealed redirects.
    ///
    /// # Errors
    ///
    /// As [`PrecursorClient::delete_sync`], plus [`StoreError::NotMine`]
    /// if the redirect chain exceeds the retry bound.
    pub fn delete_sync(
        &mut self,
        cluster: &mut PrecursorCluster,
        key: &[u8],
    ) -> Result<(), StoreError> {
        self.op_sync(cluster, Opcode::Delete, key, &[])?.ack()
    }

    /// Submits a put without waiting: returns `(node, oid)` for pipelined
    /// harnesses. Redirect completions must be handled by the caller via
    /// [`note_redirect`](Self::note_redirect).
    ///
    /// # Errors
    ///
    /// Send failures from the underlying submit.
    pub fn submit_put(
        &mut self,
        cluster: &mut PrecursorCluster,
        key: &[u8],
        value: &[u8],
    ) -> Result<(u16, u64), StoreError> {
        self.submit(cluster, Opcode::Put, key, value)
    }

    /// Submits a get without waiting: returns `(node, oid)`.
    ///
    /// # Errors
    ///
    /// Send failures from the underlying submit.
    pub fn submit_get(
        &mut self,
        cluster: &mut PrecursorCluster,
        key: &[u8],
    ) -> Result<(u16, u64), StoreError> {
        self.submit(cluster, Opcode::Get, key, &[])
    }

    /// Submits a delete without waiting: returns `(node, oid)`.
    ///
    /// # Errors
    ///
    /// Send failures from the underlying submit.
    pub fn submit_delete(
        &mut self,
        cluster: &mut PrecursorCluster,
        key: &[u8],
    ) -> Result<(u16, u64), StoreError> {
        self.submit(cluster, Opcode::Delete, key, &[])
    }

    /// Polls replies on every attested session, in node order; returns
    /// how many arrived.
    pub fn poll_all_replies(&mut self) -> usize {
        self.sessions
            .iter_mut()
            .flatten()
            .map(PrecursorClient::poll_replies)
            .sum()
    }

    /// Takes and resets the cost meters of every session, merged.
    pub fn take_meter(&mut self) -> Meter {
        let mut total = Meter::new();
        for s in self.sessions.iter_mut().flatten() {
            total.merge(&s.take_meter());
        }
        total
    }

    /// Every session's [`PrecursorClient::metrics`], merged.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for s in self.sessions.iter().flatten() {
            m.merge(&s.metrics());
        }
        m
    }

    /// Drains completed operations from every session as
    /// `(node, completion)`, in node order.
    pub fn take_all_completed(&mut self) -> Vec<(u16, CompletedOp)> {
        self.drain_completed().collect()
    }

    /// [`take_all_completed`](Self::take_all_completed) without collecting,
    /// for a caller that converts the completions into its own collection.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = (u16, CompletedOp)> + '_ {
        self.sessions
            .iter_mut()
            .enumerate()
            .filter_map(|(node, s)| Some((node as u16, s.as_mut()?)))
            .flat_map(|(node, s)| s.drain_completed().map(move |c| (node, c)))
    }
}
