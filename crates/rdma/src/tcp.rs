//! Kernel-TCP baseline transport.
//!
//! ShieldStore's clients and server "interact through socket-based
//! primitives" (§5.1); the paper attributes much of its latency gap to "TCP
//! networking", "kernel processing and TCP buffering" (§5.3). [`SimTcp`]
//! models a connected socket pair functionally (reliable, ordered message
//! stream) while the cost model charges per-message kernel/interrupt
//! latency, per-byte stack processing, and the log-normal scheduling jitter
//! that produces ShieldStore's tail outliers in Figure 7.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::plock;

/// Transfer statistics of one socket endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Messages sent from this endpoint.
    pub msgs_sent: u64,
    /// Bytes sent from this endpoint.
    pub bytes_sent: u64,
}

#[derive(Debug, Default)]
struct Shared {
    to_a: VecDeque<Vec<u8>>,
    to_b: VecDeque<Vec<u8>>,
    closed: bool,
}

/// One endpoint of a connected, reliable, ordered message socket.
///
/// # Example
///
/// ```
/// use precursor_rdma::tcp::SimTcp;
/// let (mut client, mut server) = SimTcp::pair();
/// client.send(b"request");
/// assert_eq!(server.recv().unwrap(), b"request");
/// server.send(b"reply");
/// assert_eq!(client.recv().unwrap(), b"reply");
/// ```
#[derive(Debug, Clone)]
pub struct SimTcp {
    shared: Arc<Mutex<Shared>>,
    is_a: bool,
    stats: Arc<Mutex<TcpStats>>,
}

impl SimTcp {
    /// Creates a connected socket pair.
    pub fn pair() -> (SimTcp, SimTcp) {
        let shared = Arc::new(Mutex::new(Shared::default()));
        let a = SimTcp {
            shared: shared.clone(),
            is_a: true,
            stats: Arc::new(Mutex::new(TcpStats::default())),
        };
        let b = SimTcp {
            shared,
            is_a: false,
            stats: Arc::new(Mutex::new(TcpStats::default())),
        };
        (a, b)
    }

    /// Sends one message. Returns `false` if the peer closed the connection.
    pub fn send(&mut self, data: &[u8]) -> bool {
        let mut s = plock(&self.shared);
        if s.closed {
            return false;
        }
        let q = if self.is_a { &mut s.to_b } else { &mut s.to_a };
        q.push_back(data.to_vec());
        let mut st = plock(&self.stats);
        st.msgs_sent += 1;
        st.bytes_sent += data.len() as u64;
        true
    }

    /// Receives the next pending message, if any.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        let mut s = plock(&self.shared);
        let q = if self.is_a { &mut s.to_a } else { &mut s.to_b };
        q.pop_front()
    }

    /// Number of messages waiting to be received at this endpoint.
    pub fn pending(&self) -> usize {
        let s = plock(&self.shared);
        if self.is_a {
            s.to_a.len()
        } else {
            s.to_b.len()
        }
    }

    /// Closes the connection for both endpoints.
    pub fn close(&mut self) {
        plock(&self.shared).closed = true;
    }

    /// This endpoint's send statistics.
    pub fn stats(&self) -> TcpStats {
        *plock(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_fifo() {
        let (mut a, mut b) = SimTcp::pair();
        a.send(b"1");
        a.send(b"2");
        a.send(b"3");
        assert_eq!(b.recv().unwrap(), b"1");
        assert_eq!(b.recv().unwrap(), b"2");
        assert_eq!(b.recv().unwrap(), b"3");
        assert!(b.recv().is_none());
    }

    #[test]
    fn directions_are_independent() {
        let (mut a, mut b) = SimTcp::pair();
        a.send(b"to-b");
        b.send(b"to-a");
        assert_eq!(a.recv().unwrap(), b"to-a");
        assert_eq!(b.recv().unwrap(), b"to-b");
    }

    #[test]
    fn close_stops_sends() {
        let (mut a, mut b) = SimTcp::pair();
        b.close();
        assert!(!a.send(b"x"));
        assert!(!b.send(b"y"), "closing one end closes both");
    }

    #[test]
    fn stats_count_sends_per_endpoint() {
        let (mut a, mut b) = SimTcp::pair();
        a.send(&[0u8; 10]);
        a.send(&[0u8; 20]);
        b.send(&[0u8; 5]);
        assert_eq!(
            a.stats(),
            TcpStats {
                msgs_sent: 2,
                bytes_sent: 30
            }
        );
        assert_eq!(
            b.stats(),
            TcpStats {
                msgs_sent: 1,
                bytes_sent: 5
            }
        );
    }

    #[test]
    fn pending_counts_backlog() {
        let (mut a, b) = SimTcp::pair();
        assert_eq!(b.pending(), 0);
        a.send(b"x");
        a.send(b"y");
        assert_eq!(b.pending(), 2);
    }
}
