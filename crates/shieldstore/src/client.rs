//! The ShieldStore client: seals requests with the session key and sends
//! them over kernel TCP; the server does all further cryptographic work.

use std::collections::VecDeque;
use std::sync::Arc;

use precursor_crypto::gcm;
use precursor_crypto::keys::{Key128, Nonce12};
use precursor_rdma::tcp::SimTcp;
use precursor_sim::meter::Meter;
use precursor_sim::meter::Stage::ClientCpu;
use precursor_sim::{CostModel, Event};

use crate::server::{ShieldClientBundle, ShieldServer};
use crate::wire::{
    decode_reply, encode_request, frame_sealed, unframe_sealed, ShieldOp, ShieldStatus,
};

/// A finished ShieldStore operation as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShieldCompleted {
    /// The op's sequence number.
    pub oid: u64,
    /// Kind.
    pub op: ShieldOp,
    /// Server status.
    pub status: ShieldStatus,
    /// Value for successful gets.
    pub value: Option<Vec<u8>>,
}

/// A connected ShieldStore client.
#[derive(Debug)]
pub struct ShieldClient {
    client_id: u32,
    session_key: Key128,
    socket: SimTcp,
    cost: Arc<CostModel>,
    oid: u64,
    reply_seq: u64,
    pending: VecDeque<(u64, ShieldOp)>,
    completed: Vec<ShieldCompleted>,
    meter: Meter,
}

impl ShieldClient {
    /// Connects to `server` (modelled attestation + TCP connect).
    pub fn connect(server: &mut ShieldServer, seed: u64) -> ShieldClient {
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&seed.to_le_bytes());
        let ShieldClientBundle {
            client_id,
            session_key,
            socket,
        } = server.add_client(nonce);
        ShieldClient {
            client_id,
            session_key,
            socket,
            cost: Arc::clone(server.cost()),
            oid: 0,
            reply_seq: 1,
            pending: VecDeque::new(),
            completed: Vec::new(),
            meter: Meter::new(),
        }
    }

    /// This client's id.
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// Takes the client-side cost meter.
    pub fn take_meter(&mut self) -> Meter {
        self.meter.take()
    }

    fn send(&mut self, op: ShieldOp, key: &[u8], value: &[u8]) -> u64 {
        self.oid += 1;
        let oid = self.oid;
        let plain = encode_request(op, oid, key, value);
        // Transport encryption of the *entire* request (server-encryption
        // scheme): charged at the client like any TLS-style sender.
        let len = plain.len();
        let (meter, cost) = (&mut self.meter, &self.cost);
        meter.event(ClientCpu, Event::Gcm { len }, 1, cost);
        meter.event(ClientCpu, Event::CryptoBytes { len }, 1, cost);
        let mut ivb = [0u8; 12];
        ivb[0] = 0x01;
        ivb[4..].copy_from_slice(&oid.to_be_bytes());
        let iv = Nonce12::from_bytes(ivb);
        let sealed = gcm::seal(&self.session_key, &iv, &[], &plain);
        let framed = frame_sealed(&iv, &sealed);
        self.socket.send(&framed);
        let (meter, cost, len) = (&mut self.meter, &self.cost, framed.len());
        meter.event(ClientCpu, Event::Tx { len }, 1, cost);
        meter.event(ClientCpu, Event::ClientTcpMsg, 1, cost);
        self.pending.push_back((oid, op));
        oid
    }

    /// Issues a put; returns its `oid`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> u64 {
        self.send(ShieldOp::Put, key, value)
    }

    /// Issues a get; returns its `oid`.
    pub fn get(&mut self, key: &[u8]) -> u64 {
        self.send(ShieldOp::Get, key, &[])
    }

    /// Issues a delete; returns its `oid`.
    pub fn delete(&mut self, key: &[u8]) -> u64 {
        self.send(ShieldOp::Delete, key, &[])
    }

    /// Drains replies from the socket (TCP preserves order, so replies match
    /// pending operations FIFO). Returns how many completed.
    pub fn poll_replies(&mut self) -> usize {
        let mut n = 0;
        while let Some(msg) = self.socket.recv() {
            let seq = self.reply_seq;
            self.reply_seq += 1;
            let open = Event::Gcm { len: msg.len() };
            self.meter.event(ClientCpu, open, 1, &self.cost);
            let Some((oid, op)) = self.pending.pop_front() else {
                break;
            };
            let mut expected_iv = [0u8; 12];
            expected_iv[0] = 0x02;
            expected_iv[4..].copy_from_slice(&seq.to_be_bytes());
            let result = unframe_sealed(&msg)
                .filter(|(iv, _)| iv.as_bytes() == &expected_iv)
                .and_then(|(iv, sealed)| gcm::open(&self.session_key, &iv, &[], sealed).ok())
                .and_then(|plain| decode_reply(&plain).map(|(s, v)| (s, v.to_vec())));
            let completed = match result {
                Some((status, value)) => ShieldCompleted {
                    oid,
                    op,
                    status,
                    value: if status == ShieldStatus::Ok && op == ShieldOp::Get {
                        Some(value)
                    } else {
                        None
                    },
                },
                None => ShieldCompleted {
                    oid,
                    op,
                    status: ShieldStatus::Error,
                    value: None,
                },
            };
            self.completed.push(completed);
            n += 1;
        }
        n
    }

    /// Takes all completed operations, oldest first.
    pub fn take_all_completed(&mut self) -> Vec<ShieldCompleted> {
        std::mem::take(&mut self.completed)
    }

    /// Convenience: put and wait by pumping the server.
    pub fn put_sync(
        &mut self,
        server: &mut ShieldServer,
        key: &[u8],
        value: &[u8],
    ) -> ShieldStatus {
        self.put(key, value);
        server.poll();
        self.poll_replies();
        self.completed
            .pop()
            .map(|c| c.status)
            .unwrap_or(ShieldStatus::Error)
    }

    /// Convenience: get and wait by pumping the server.
    pub fn get_sync(&mut self, server: &mut ShieldServer, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key);
        server.poll();
        self.poll_replies();
        self.completed.pop().and_then(|c| c.value)
    }

    /// Convenience: delete and wait by pumping the server.
    pub fn delete_sync(&mut self, server: &mut ShieldServer, key: &[u8]) -> ShieldStatus {
        self.delete(key);
        server.poll();
        self.poll_replies();
        self.completed
            .pop()
            .map(|c| c.status)
            .unwrap_or(ShieldStatus::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ShieldConfig;
    use precursor_sim::CostModel;

    fn setup() -> (ShieldServer, ShieldClient) {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 1 << 10,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let client = ShieldClient::connect(&mut server, 1);
        (server, client)
    }

    #[test]
    fn put_get_roundtrip_over_tcp() {
        let (mut server, mut client) = setup();
        assert_eq!(client.put_sync(&mut server, b"k", b"v"), ShieldStatus::Ok);
        assert_eq!(client.get_sync(&mut server, b"k").unwrap(), b"v");
    }

    #[test]
    fn missing_key_not_found() {
        let (mut server, mut client) = setup();
        assert!(client.get_sync(&mut server, b"nope").is_none());
    }

    #[test]
    fn delete_roundtrip() {
        let (mut server, mut client) = setup();
        client.put_sync(&mut server, b"k", b"v");
        assert_eq!(client.delete_sync(&mut server, b"k"), ShieldStatus::Ok);
        assert!(client.get_sync(&mut server, b"k").is_none());
        assert_eq!(
            client.delete_sync(&mut server, b"k"),
            ShieldStatus::NotFound
        );
    }

    #[test]
    fn pipelined_ops_complete_fifo() {
        let (mut server, mut client) = setup();
        for i in 0..10u32 {
            client.put(&i.to_le_bytes(), format!("v{i}").as_bytes());
        }
        server.poll();
        assert_eq!(client.poll_replies(), 10);
        let completed = client.take_all_completed();
        assert_eq!(completed.len(), 10);
        assert!(completed.iter().all(|c| c.status == ShieldStatus::Ok));

        for i in 0..10u32 {
            client.get(&i.to_le_bytes());
        }
        server.poll();
        client.poll_replies();
        let gets = client.take_all_completed();
        for (i, c) in gets.iter().enumerate() {
            assert_eq!(c.value.as_deref().unwrap(), format!("v{i}").as_bytes());
        }
    }

    #[test]
    fn multiple_clients_isolated_sessions() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 1 << 10,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut a = ShieldClient::connect(&mut server, 1);
        let mut b = ShieldClient::connect(&mut server, 2);
        a.put_sync(&mut server, b"ka", b"va");
        b.put_sync(&mut server, b"kb", b"vb");
        assert_eq!(a.get_sync(&mut server, b"kb").unwrap(), b"vb");
        assert_eq!(b.get_sync(&mut server, b"ka").unwrap(), b"va");
    }

    #[test]
    fn replayed_oid_rejected() {
        let (mut server, mut client) = setup();
        client.put_sync(&mut server, b"k", b"v");
        // craft a stale-oid request by resetting the client's counter
        client.oid = 0;
        client.put(b"k", b"evil");
        server.poll();
        client.poll_replies();
        let c = client.take_all_completed().pop().unwrap();
        assert_eq!(c.status, ShieldStatus::Error);
        // value unchanged; resync so the next op carries oid 2, which the
        // server still expects (the replay did not advance it)
        client.oid = 1;
        assert_eq!(client.get_sync(&mut server, b"k").unwrap(), b"v");
    }

    #[test]
    fn client_meter_counts_tcp_and_crypto() {
        let (mut server, mut client) = setup();
        client.put_sync(&mut server, b"k", &[0u8; 1024]);
        let m = client.take_meter();
        assert!(m.counters().tcp_msgs >= 1);
        assert!(m.get(ClientCpu) > precursor_sim::Nanos::ZERO);
    }
}
