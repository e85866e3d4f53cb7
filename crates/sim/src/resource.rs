//! FIFO queueing resources.
//!
//! The closed-loop benchmark driver models contended hardware — server CPU
//! threads, NIC links, the enclave — as non-preemptive FIFO servers. A job
//! asks a resource for `duration` of service starting no earlier than
//! `ready`; the resource returns the granted `[start, end)` window and
//! remembers its new availability.
//!
//! Jobs must be offered to a resource in nondecreasing `ready` order for the
//! FIFO discipline to be exact; the driver guarantees this by processing
//! simulation tokens in time order.

use crate::time::Nanos;

/// The service window granted by a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (≥ the requested ready time).
    pub start: Nanos,
    /// When service completed.
    pub end: Nanos,
}

/// A pool of `k` identical FIFO servers (e.g. 12 server hyper-threads; a
/// pool of one is a single FIFO server, such as a link's serializer).
///
/// Each job is dispatched to the server that can start it earliest,
/// which models a shared run queue.
///
/// # Example
///
/// ```
/// use precursor_sim::resource::Pool;
/// use precursor_sim::time::Nanos;
/// let mut cpu = Pool::new("cpu", 1);
/// let g = cpu.acquire(Nanos(10), Nanos(5));
/// assert_eq!((g.start, g.end), (Nanos(10), Nanos(15)));
/// ```
#[derive(Debug, Clone)]
pub struct Pool {
    name: &'static str,
    servers: Vec<Nanos>,
    busy: Nanos,
}

impl Pool {
    /// Creates a pool of `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(name: &'static str, k: usize) -> Pool {
        assert!(k > 0, "pool must have at least one server");
        Pool {
            name,
            servers: vec![Nanos::ZERO; k],
            busy: Nanos::ZERO,
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Grants `duration` of service on the earliest-available server.
    pub fn acquire(&mut self, ready: Nanos, duration: Nanos) -> Grant {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("pool is nonempty");
        self.serve(idx, ready, duration)
    }

    // Runs one job on server `idx`, FIFO behind its earlier jobs.
    fn serve(&mut self, idx: usize, ready: Nanos, duration: Nanos) -> Grant {
        let start = ready.max(self.servers[idx]);
        let end = start + duration;
        self.servers[idx] = end;
        self.busy += duration;
        Grant { start, end }
    }

    /// Grants service where only the first `critical` portion delays the
    /// job, while the server stays occupied for the full `occupancy`
    /// (post-processing and polling overhead happen after the request has
    /// departed). Returns `(departure, end_of_occupancy)`.
    ///
    /// # Panics
    ///
    /// Panics if `critical > occupancy`.
    pub fn acquire_partial(
        &mut self,
        ready: Nanos,
        critical: Nanos,
        occupancy: Nanos,
    ) -> (Nanos, Nanos) {
        assert!(critical <= occupancy, "critical part exceeds occupancy");
        let g = self.acquire(ready, occupancy);
        (g.start + critical, g.end)
    }

    /// [`acquire_partial`](Self::acquire_partial) on a *specific* server
    /// (a pinned thread, e.g. a trusted poller owning a subset of client
    /// rings): the job departs after its `critical` portion while the
    /// pinned server stays occupied for the full `occupancy`. Returns
    /// `(departure, end_of_occupancy)`.
    ///
    /// # Panics
    ///
    /// Panics if `critical > occupancy` or `server` is out of range.
    pub fn acquire_partial_on(
        &mut self,
        server: usize,
        ready: Nanos,
        critical: Nanos,
        occupancy: Nanos,
    ) -> (Nanos, Nanos) {
        assert!(critical <= occupancy, "critical part exceeds occupancy");
        let g = self.serve(server, ready, occupancy);
        (g.start + critical, g.end)
    }

    /// Mean utilization of the pool over `[0, horizon)`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            0.0
        } else {
            (self.busy.0 as f64 / (horizon.0 as f64 * self.servers.len() as f64)).min(1.0)
        }
    }
}

/// A network link with propagation latency and serialization bandwidth.
///
/// Transfer of an `n`-byte message occupies the link for `n / bandwidth`
/// (serialization) and the message arrives one propagation latency after
/// serialization completes — the standard store-and-forward pipe model.
/// Links are full-duplex: create one `Link` per direction.
#[derive(Debug, Clone)]
pub struct Link {
    pipe: Pool,
    latency: Nanos,
    gbits_per_sec: f64,
}

impl Link {
    /// Creates a link with the given one-way propagation latency and
    /// bandwidth in gigabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `gbits_per_sec` is not strictly positive.
    pub fn new(name: &'static str, latency: Nanos, gbits_per_sec: f64) -> Link {
        assert!(gbits_per_sec > 0.0, "bandwidth must be positive");
        Link {
            pipe: Pool::new(name, 1),
            latency,
            gbits_per_sec,
        }
    }

    /// Serialization time for `bytes` at this link's bandwidth.
    pub fn serialization(&self, bytes: usize) -> Nanos {
        Nanos(((bytes as f64 * 8.0) / self.gbits_per_sec).round() as u64)
    }

    /// Sends `bytes` starting no earlier than `ready`; returns the arrival
    /// time at the far end.
    pub fn transfer(&mut self, ready: Nanos, bytes: usize) -> Nanos {
        let tx = self.pipe.acquire(ready, self.serialization(bytes));
        tx.end + self.latency
    }

    /// Utilization of the serialization pipe over `[0, horizon)`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        self.pipe.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_partial_on_pins_and_splits() {
        let mut p = Pool::new("pollers", 2);
        // Two jobs pinned to server 0 queue behind each other even though
        // server 1 is idle; each departs after its critical part.
        let (d1, e1) = p.acquire_partial_on(0, Nanos(0), Nanos(3), Nanos(10));
        let (d2, e2) = p.acquire_partial_on(0, Nanos(0), Nanos(3), Nanos(10));
        assert_eq!((d1, e1), (Nanos(3), Nanos(10)));
        assert_eq!((d2, e2), (Nanos(13), Nanos(20)));
        // A job pinned to the idle server 1 starts immediately.
        let (d3, _) = p.acquire_partial_on(1, Nanos(0), Nanos(3), Nanos(10));
        assert_eq!(d3, Nanos(3));
    }

    #[test]
    fn resource_fifo_queues() {
        let mut r = Pool::new("r", 1);
        let a = r.acquire(Nanos(0), Nanos(10));
        let b = r.acquire(Nanos(2), Nanos(10));
        let c = r.acquire(Nanos(50), Nanos(10));
        assert_eq!(
            a,
            Grant {
                start: Nanos(0),
                end: Nanos(10)
            }
        );
        assert_eq!(
            b,
            Grant {
                start: Nanos(10),
                end: Nanos(20)
            }
        );
        // idle gap before c
        assert_eq!(
            c,
            Grant {
                start: Nanos(50),
                end: Nanos(60)
            }
        );
        assert!(
            (r.utilization(Nanos(60)) - 0.5).abs() < 1e-12,
            "30 of 60 ns busy"
        );
    }

    #[test]
    fn grant_queueing_time() {
        let mut r = Pool::new("r", 1);
        r.acquire(Nanos(0), Nanos(100));
        let g = r.acquire(Nanos(30), Nanos(10));
        // Ready at 30, served from 100: 70 ns in the queue.
        assert_eq!(g.start - Nanos(30), Nanos(70));
        assert_eq!(g.end, Nanos(110));
    }

    #[test]
    fn resource_utilization() {
        let mut r = Pool::new("r", 1);
        r.acquire(Nanos(0), Nanos(25));
        assert!((r.utilization(Nanos(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Nanos::ZERO), 0.0);
    }

    #[test]
    fn pool_runs_jobs_in_parallel() {
        let mut p = Pool::new("cpu", 2);
        let a = p.acquire(Nanos(0), Nanos(10));
        let b = p.acquire(Nanos(0), Nanos(10));
        let c = p.acquire(Nanos(0), Nanos(10));
        assert_eq!(a.start, Nanos(0));
        assert_eq!(b.start, Nanos(0));
        assert_eq!(c.start, Nanos(10)); // third job waits for a server
        assert!(
            (p.utilization(Nanos(20)) - 0.75).abs() < 1e-12,
            "30 of 40 server-ns"
        );
    }

    #[test]
    fn pool_pinned_server() {
        let mut p = Pool::new("cpu", 3);
        let a = p.acquire_partial_on(1, Nanos(0), Nanos(10), Nanos(10));
        let b = p.acquire_partial_on(1, Nanos(0), Nanos(10), Nanos(10));
        assert_eq!(a, (Nanos(10), Nanos(10)));
        assert_eq!(b, (Nanos(20), Nanos(20))); // same server serializes
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn pool_rejects_empty() {
        let _ = Pool::new("cpu", 0);
    }

    #[test]
    fn link_serialization_matches_bandwidth() {
        // 40 Gbit/s: 1 byte = 0.2 ns, so 1000 bytes = 200 ns.
        let l = Link::new("l", Nanos(900), 40.0);
        assert_eq!(l.serialization(1000), Nanos(200));
    }

    #[test]
    fn link_transfer_adds_latency_and_contends() {
        let mut l = Link::new("l", Nanos(1000), 8.0); // 1 B/ns
        let first = l.transfer(Nanos(0), 500);
        assert_eq!(first, Nanos(1500));
        // second message queues behind first's serialization
        let second = l.transfer(Nanos(0), 500);
        assert_eq!(second, Nanos(2000));
    }
}
