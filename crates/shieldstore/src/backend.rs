//! [`TrustedKv`] implementation for the ShieldStore baseline.
//!
//! Adapts ShieldStore's native vocabulary ([`ShieldOp`], [`ShieldStatus`],
//! socket-based clients) to the backend-neutral surface the YCSB driver
//! and the cross-backend suites drive. ShieldStore has no trusted polling
//! shards, so every report carries `shard == 0`, and its kernel-TCP
//! transport is declared via [`Transport::Tcp`] so the discrete-event
//! replay applies message latency + scheduling jitter instead of the RNIC
//! QP-cache model.

use precursor::backend::{KvCompleted, KvOp, KvOpReport, KvStatus, Transport, TrustedKv};
use precursor::StoreError;
use precursor_obs::MetricsRegistry;
use precursor_sgx::SgxPerfReport;
use precursor_sim::meter::Meter;
use precursor_sim::CostModel;

use crate::client::ShieldClient;
use crate::server::{ShieldConfig, ShieldServer};
use crate::wire::{ShieldOp, ShieldStatus};

fn op_of(op: ShieldOp) -> KvOp {
    match op {
        ShieldOp::Put => KvOp::Put,
        ShieldOp::Get => KvOp::Get,
        ShieldOp::Delete => KvOp::Delete,
    }
}

fn status_of(s: ShieldStatus) -> KvStatus {
    match s {
        ShieldStatus::Ok => KvStatus::Ok,
        ShieldStatus::NotFound => KvStatus::NotFound,
        ShieldStatus::Error => KvStatus::Error,
    }
}

/// [`TrustedKv`] over a ShieldStore server and its socket clients.
pub struct ShieldBackend {
    server: ShieldServer,
    clients: Vec<ShieldClient>,
}

impl ShieldBackend {
    /// Builds the server with `config`; connect clients afterwards.
    pub fn new(config: ShieldConfig, cost: &CostModel) -> ShieldBackend {
        ShieldBackend {
            server: ShieldServer::new(config, cost),
            clients: Vec::new(),
        }
    }

    /// The underlying server (for assertions beyond the trait surface).
    pub fn server(&self) -> &ShieldServer {
        &self.server
    }

    /// Mutable access to the underlying server.
    pub fn server_mut(&mut self) -> &mut ShieldServer {
        &mut self.server
    }
}

impl TrustedKv for ShieldBackend {
    fn name(&self) -> &'static str {
        "ShieldStore"
    }

    fn transport(&self) -> Transport {
        Transport::Tcp
    }

    fn connect(&mut self, seed: u64) -> Result<usize, StoreError> {
        let client = ShieldClient::connect(&mut self.server, seed);
        self.clients.push(client);
        Ok(self.clients.len() - 1)
    }

    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn submit(
        &mut self,
        client: usize,
        op: KvOp,
        key: &[u8],
        value: &[u8],
    ) -> Result<u64, StoreError> {
        let c = &mut self.clients[client];
        Ok(match op {
            KvOp::Put => c.put(key, value),
            KvOp::Get => c.get(key),
            KvOp::Delete => c.delete(key),
        })
    }

    fn poll(&mut self) -> usize {
        self.server.poll()
    }

    fn poll_replies(&mut self, client: usize) -> usize {
        self.clients[client].poll_replies()
    }

    fn take_completed_into(&mut self, client: usize, out: &mut Vec<KvCompleted>) {
        out.extend(
            self.clients[client]
                .take_all_completed()
                .into_iter()
                .map(|c| KvCompleted {
                    oid: c.oid,
                    op: op_of(c.op),
                    status: status_of(c.status),
                    value: c.value,
                }),
        );
    }

    fn take_client_meter(&mut self, client: usize) -> Meter {
        self.clients[client].take_meter()
    }

    fn take_reports_into(&mut self, out: &mut Vec<KvOpReport>) {
        out.extend(self.server.take_reports().into_iter().map(|r| KvOpReport {
            client_id: r.client_id,
            op: op_of(r.op),
            status: status_of(r.status),
            value_len: r.value_len,
            node: 0,
            shard: 0,
            meter: r.meter,
        }));
    }

    fn sgx_report(&self) -> SgxPerfReport {
        self.server.sgx_report()
    }

    fn store_len(&self) -> usize {
        self.server.len()
    }

    fn warmup_batch(&self, _frame_bytes: usize) -> usize {
        // Sockets are unbounded queues; 256 keeps per-sweep work modest
        // (matches the historical bulk-load cadence).
        256
    }

    fn metrics(&self) -> MetricsRegistry {
        self.server.metrics().clone()
    }
}
