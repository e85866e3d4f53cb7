//! Cluster benchmark driver: closed-loop clients over a multi-node
//! [`PrecursorCluster`], with live key-range migration under load.
//!
//! Unlike [`driver`](crate::driver) — which replays one server's per-op
//! costs through contended NIC/CPU resources — this driver models the
//! cluster-scaling claim directly in virtual time: every node is an
//! independent trusted poller, so the cluster's virtual duration for a
//! measured window is the **busiest node's** accumulated server-side meter
//! charge (critical path + enclave + overhead, folded from each node's
//! [`OpReport`](precursor::OpReport) stream). Client and network time are
//! excluded: they are identical across node counts and would only dilute
//! the scaling signal.
//!
//! Every operation is executed functionally through a [`ClusterClient`]:
//! real routing through a (possibly stale) location cache, real sealed
//! `NotMine` redirects, real migration fences. A redirected op pays its
//! wasted visit at the stale node — the redirect's server-side charge
//! lands in that node's busy time — which is exactly the cost the
//! `redirect rate < 1%` acceptance bound keeps honest.

use precursor::cluster::MigrationOutcome;
use precursor::{ClusterClient, Config, PrecursorCluster};
use precursor_sim::rng::SimRng;
use precursor_sim::{CostModel, Nanos};

use crate::workload::{key_bytes, value_bytes, OpGenerator, OpKind, WorkloadSpec};

/// Parameters of one cluster bench session.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Cluster node count.
    pub nodes: usize,
    /// Connected closed-loop clients (each a [`ClusterClient`]).
    pub clients: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Keyspace loaded during warmup.
    pub key_count: u64,
    /// Seed for all stochastic choices.
    pub seed: u64,
}

/// Results of one measured cluster window.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Operations per second of virtual time (ops over the busiest node's
    /// accumulated server-side charge).
    pub throughput_ops: f64,
    /// Virtual duration of the window (busiest node).
    pub duration: Nanos,
    /// Per-node accumulated server-side charge over the window.
    pub node_busy: Vec<Nanos>,
    /// Operations measured.
    pub ops: u64,
    /// Clients that issued at least one operation.
    pub clients_active: u64,
    /// Sealed `NotMine` redirects observed during the window.
    pub redirects: u64,
    /// Ring snapshots re-fetched after a redirect proved a cache stale.
    pub refreshes: u64,
    /// `redirects / ops` — the stale-routing overhead of the window.
    pub redirect_rate: f64,
    /// Migrations fenced during the window.
    pub migrations_fenced: u64,
    /// Keys installed at destinations by those fences.
    pub keys_moved: u64,
}

/// A warmed-up cluster reusable across measurement windows.
pub struct ClusterSession {
    cluster: PrecursorCluster,
    clients: Vec<ClusterClient>,
    value_size: usize,
    seed: u64,
    measurements: u64,
    node_busy: Vec<Nanos>,
}

impl ClusterSession {
    /// Builds the cluster, connects every client (each eagerly attests to
    /// node 0; other sessions attach lazily on first route), and loads the
    /// keyspace through cluster routing — so each record lives only on its
    /// owning node. Rings are shrunk to 1 KiB (a closed-loop client keeps
    /// one op in flight), as in the fig6 scale sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `clients == 0`, or on attestation
    /// failure.
    pub fn build(params: &ClusterParams, cost: &CostModel) -> ClusterSession {
        assert!(params.nodes > 0 && params.clients > 0, "empty cluster");
        let per_entry = (params.value_size + 64).next_power_of_two();
        let config = Config {
            max_clients: params.clients + 1,
            pool_bytes: ((params.key_count as usize + 1024) * per_entry).max(16 << 20),
            ring_bytes: 1 << 10,
            ..Config::default()
        };
        let mut cluster = PrecursorCluster::new(params.nodes, config, cost);
        let mut clients = Vec::with_capacity(params.clients);
        for i in 0..params.clients {
            clients.push(
                ClusterClient::connect(&mut cluster, params.seed ^ ((i as u64) << 8))
                    .expect("connect"),
            );
        }
        let mut session = ClusterSession {
            node_busy: vec![Nanos::ZERO; params.nodes],
            cluster,
            clients,
            value_size: params.value_size,
            seed: params.seed,
            measurements: 0,
        };
        for id in 0..params.key_count {
            let value = value_bytes(id, 0, session.value_size);
            session.clients[0]
                .put_sync(&mut session.cluster, &key_bytes(id), &value)
                .expect("warmup put");
        }
        // Warmup charges don't count against the measured windows.
        session.drain_reports();
        session.node_busy.iter_mut().for_each(|b| *b = Nanos::ZERO);
        session
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &PrecursorCluster {
        &self.cluster
    }

    // Folds every node's pending op reports into its busy-time account.
    fn drain_reports(&mut self) {
        for (i, busy) in self.node_busy.iter_mut().enumerate() {
            for report in self.cluster.node_mut(i).take_reports() {
                *busy += report.meter.total();
            }
        }
    }

    /// Runs one measured window of `ops` operations.
    ///
    /// The window drives `min(clients, ops / 4)` of the connected fleet
    /// round-robin (closed loop: each client has at most one op in
    /// flight). With `migrate` set on a multi-node cluster, the ring
    /// segment owning the first warmup key starts migrating to the next
    /// node five sixths into the window and pumps underneath the workload,
    /// so the tail measures redirect-and-refresh traffic from every stale
    /// location cache.
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0` or an operation fails.
    pub fn measure(&mut self, spec: &WorkloadSpec, ops: u64, migrate: bool) -> ClusterRunResult {
        assert!(ops > 0, "empty measurement");
        self.measurements += 1;
        let active = self.clients.len().min((ops / 4).max(1) as usize);
        let base_seed = self.seed ^ (self.measurements << 32);
        let mut gens: Vec<Option<OpGenerator>> = (0..active).map(|_| None).collect();
        let mut versions: Vec<u64> = vec![0; active];
        let mut activated = 0u64;
        let stats_before: Vec<_> = self.clients.iter().map(|c| c.stats()).collect();
        let busy_before = self.node_busy.clone();
        let fenced_before = self.cluster.migrations_completed();
        let migrate_at = ops * 5 / 6;
        let mut keys_moved = 0u64;

        for i in 0..ops {
            if migrate && self.cluster.node_count() > 1 && i == migrate_at {
                let hot = key_bytes(0);
                let from = self.cluster.meta().lookup(&hot).0;
                let to = (from + 1) % self.cluster.node_count() as u16;
                assert!(
                    self.cluster.start_migration(&hot, to).expect("start"),
                    "distinct nodes always migrate"
                );
            }
            if self.cluster.migration_in_flight() && i % 16 == 0 {
                if let MigrationOutcome::Fenced(r) = self.cluster.pump_migration(8) {
                    keys_moved += r.keys_moved as u64;
                }
            }
            let c = (i % active as u64) as usize;
            let gen = gens[c].get_or_insert_with(|| {
                activated += 1;
                let stream = SimRng::seed_from(
                    base_seed.wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                OpGenerator::new(spec.clone(), stream)
            });
            let (kind, key_id) = gen.next_op();
            versions[c] += 1;
            let key = key_bytes(key_id);
            let client = &mut self.clients[c];
            match kind {
                OpKind::Read => {
                    client
                        .get_sync(&mut self.cluster, &key)
                        .expect("warmed key reads");
                }
                OpKind::Update => {
                    let value = value_bytes(key_id, versions[c], self.value_size);
                    client
                        .put_sync(&mut self.cluster, &key, &value)
                        .expect("put");
                }
            }
            if i % 64 == 63 {
                self.drain_reports();
            }
        }
        // Settle: drain any still-streaming fence so the session ends in a
        // stable ownership state, then collect the window's charges.
        while self.cluster.migration_in_flight() {
            if let MigrationOutcome::Fenced(r) = self.cluster.pump_migration(8) {
                keys_moved += r.keys_moved as u64;
            }
        }
        self.drain_reports();

        let node_busy: Vec<Nanos> = self
            .node_busy
            .iter()
            .zip(&busy_before)
            .map(|(now, before)| *now - *before)
            .collect();
        let duration = node_busy.iter().copied().max().unwrap_or(Nanos::ZERO);
        let (mut redirects, mut refreshes) = (0u64, 0u64);
        for (client, before) in self.clients.iter().zip(&stats_before) {
            let s = client.stats();
            redirects += s.redirects - before.redirects;
            refreshes += s.refreshes - before.refreshes;
        }
        ClusterRunResult {
            throughput_ops: precursor_sim::stats::throughput_ops_per_sec(ops, duration),
            duration,
            node_busy,
            ops,
            clients_active: activated,
            redirects,
            refreshes,
            redirect_rate: redirects as f64 / ops as f64,
            migrations_fenced: self.cluster.migrations_completed() - fenced_before,
            keys_moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nodes: usize, clients: usize, ops: u64, migrate: bool) -> ClusterRunResult {
        let cost = CostModel::default();
        let mut session = ClusterSession::build(
            &ClusterParams {
                nodes,
                clients,
                value_size: 32,
                key_count: 400,
                seed: 0xF19,
            },
            &cost,
        );
        session.measure(&WorkloadSpec::workload_b(32, 400), ops, migrate)
    }

    #[test]
    fn single_node_window_produces_sane_numbers() {
        let r = quick(1, 8, 600, false);
        assert!(r.throughput_ops > 10_000.0, "tput {}", r.throughput_ops);
        assert_eq!(r.node_busy.len(), 1);
        assert_eq!(r.redirects, 0, "one node never redirects");
        assert_eq!(r.migrations_fenced, 0);
    }

    #[test]
    fn multi_node_window_fences_and_redirects_cheaply() {
        let r = quick(2, 8, 900, true);
        assert_eq!(r.migrations_fenced, 1, "the window's migration fences");
        assert!(r.redirects > 0, "stale caches must redirect after a fence");
        assert!(r.redirect_rate < 0.05, "rate {}", r.redirect_rate);
        // Both nodes carried load.
        assert!(r.node_busy.iter().all(|b| *b > Nanos::ZERO));
    }

    #[test]
    fn windows_are_deterministic() {
        let a = quick(2, 8, 900, true);
        let b = quick(2, 8, 900, true);
        assert_eq!(a.throughput_ops, b.throughput_ops);
        assert_eq!(a.node_busy, b.node_busy);
        assert_eq!(a.redirects, b.redirects);
    }

    #[test]
    fn nodes_spread_the_busy_time() {
        let one = quick(1, 8, 900, false);
        let four = quick(4, 8, 900, false);
        let speedup = four.throughput_ops / one.throughput_ops;
        assert!(speedup > 1.5, "4-node speedup {speedup:.2}");
    }
}
