//! Store configuration.

use precursor_sim::time::Nanos;

/// Where payload encryption happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncryptionMode {
    /// The paper's design (§3): clients encrypt values under one-time keys;
    /// the payload never enters the enclave.
    #[default]
    ClientSide,
    /// The conventional baseline (§2.4, §5.1): the full payload is
    /// transport-encrypted into the enclave, verified, re-encrypted under a
    /// server storage key, and stored back out. Used as the "Precursor
    /// server-encryption" comparison system.
    ServerSide,
}

/// Configuration of a Precursor server instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Payload encryption scheme.
    pub mode: EncryptionMode,
    /// Capacity of each per-client request and reply ring, in bytes: a
    /// bound on what may be in flight, not on what is resident. A ring
    /// larger than one page holds only the pages that may hold a non-zero
    /// byte; one of at most a page is a contiguous buffer.
    pub ring_bytes: usize,
    /// Initial size of the untrusted payload pool, in bytes; the pool grows
    /// by the same amount per modelled ocall when exhausted (§3.8).
    pub pool_bytes: usize,
    /// Maximum concurrent clients.
    pub max_clients: usize,
    /// Largest accepted key, in bytes.
    pub max_key_bytes: usize,
    /// Largest accepted value, in bytes.
    pub max_value_bytes: usize,
    /// Initial enclave hash-table slots ("only a subset of the hash table"
    /// is initialized up front, §5.4).
    pub initial_table_slots: usize,
    /// Most request records one [`poll`](crate::PrecursorServer::poll) sweep
    /// consumes from a single client's ring before moving to the next client
    /// (round-robin fairness — a flooder cannot monopolize the trusted
    /// thread). Must be at least 1. Unconsumed records simply wait; no reply
    /// is generated and no `oid` is burned.
    pub poll_budget_per_client: usize,
    /// Maximum untrusted-pool bytes (counted in slot capacities) one client
    /// may hold across its stored values. Exceeding puts are refused with
    /// [`Status::Busy`](crate::wire::Status::Busy) backpressure instead of
    /// growing the pool. `0` disables quotas.
    pub pool_quota_bytes: usize,
    /// Maximum buffered [`OpReport`](crate::OpReport)s held for
    /// [`take_reports`](crate::PrecursorServer::take_reports). When a caller
    /// never drains them, the oldest are dropped (and counted) instead of
    /// growing memory without bound.
    pub max_buffered_reports: usize,
    /// Number of trusted polling shards (§3.8: "multiple trusted polling
    /// threads"). Each shard owns the clients whose `client_id % shards`
    /// equals its index plus a partition of the enclave hash table keyed by
    /// a stable hash of the key; requests that hash to a foreign shard
    /// cross a handoff queue. `1` (the default) is the N = 1 instance of
    /// the same sweep: one worker owning every client and the whole table,
    /// so nothing is ever handed off.
    pub shards: usize,
    /// Values of at most this many bytes are stored directly *inside* the
    /// enclave instead of the untrusted pool — the paper's proposed future
    /// extension for values smaller than the control data (§5.2: "one could
    /// as an alternative store the value directly inside the trusted
    /// memory... We consider this as a future extension"). `0` disables it
    /// (the paper's evaluated configuration).
    pub inline_value_max: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            mode: EncryptionMode::ClientSide,
            ring_bytes: 1 << 20,
            pool_bytes: 64 << 20,
            max_clients: 128,
            max_key_bytes: 256,
            max_value_bytes: 256 << 10,
            initial_table_slots: 2048,
            shards: 1,
            inline_value_max: 0,
            poll_budget_per_client: 128,
            pool_quota_bytes: 0,
            max_buffered_reports: 1 << 16,
        }
    }
}

impl Config {
    /// Enables the small-value in-enclave extension with the paper's ≈56 B
    /// control-data threshold (§5.2).
    pub fn with_small_value_inlining() -> Config {
        Config {
            inline_value_max: 56,
            ..Config::default()
        }
    }
}

impl Config {
    /// A configuration with the server-encryption baseline enabled.
    pub fn server_encryption() -> Config {
        Config {
            mode: EncryptionMode::ServerSide,
            ..Config::default()
        }
    }

    /// A configuration with `shards` trusted polling shards.
    pub fn sharded(shards: usize) -> Config {
        Config {
            shards: shards.max(1),
            ..Config::default()
        }
    }
}

/// Client-side timeout/retry parameters, all in simulated time.
///
/// An operation is retransmitted when no reply arrives within
/// `per_try_timeout`; successive retransmissions back off exponentially
/// (`backoff_base` doubling up to `backoff_cap`, with multiplicative
/// `jitter`). After `max_attempts` retransmissions the operation fails with
/// [`crate::StoreError::RetriesExhausted`]; if `overall_timeout` elapses
/// first it fails with [`crate::StoreError::Timeout`]. Retransmissions are
/// idempotent: they re-issue the *same* `oid` (and, for puts, the same
/// `K_operation`), so the server's at-most-once window applies each update
/// exactly once no matter how often the request is repeated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Reply deadline of a single transmission attempt.
    pub per_try_timeout: Nanos,
    /// Hard deadline across all attempts of one operation.
    pub overall_timeout: Nanos,
    /// First retransmission delay (doubles per attempt).
    pub backoff_base: Nanos,
    /// Upper bound of the retransmission delay.
    pub backoff_cap: Nanos,
    /// Multiplicative jitter applied to each delay, in `[0, 1]`.
    pub jitter: f64,
    /// Retransmissions allowed per operation (the initial send is free).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            per_try_timeout: Nanos(100_000),    // 100 µs — ≫ one RTT
            overall_timeout: Nanos(50_000_000), // 50 ms
            backoff_base: Nanos(50_000),
            backoff_cap: Nanos(3_200_000),
            jitter: 0.2,
            max_attempts: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_client_side() {
        assert_eq!(Config::default().mode, EncryptionMode::ClientSide);
    }

    #[test]
    fn server_encryption_flips_only_mode() {
        let a = Config::default();
        let b = Config::server_encryption();
        assert_eq!(b.mode, EncryptionMode::ServerSide);
        assert_eq!(a.ring_bytes, b.ring_bytes);
    }

    #[test]
    fn overload_defaults_are_sane() {
        let c = Config::default();
        assert!(c.poll_budget_per_client > 0, "fairness on by default");
        assert_eq!(c.pool_quota_bytes, 0, "quotas opt-in");
        assert!(c.max_buffered_reports >= 1 << 16);
    }

    #[test]
    fn default_is_single_shard() {
        assert_eq!(Config::default().shards, 1);
        assert_eq!(Config::sharded(0).shards, 1);
        assert_eq!(Config::sharded(4).shards, 4);
    }

    #[test]
    fn retry_policy_defaults_are_ordered() {
        let p = RetryPolicy::default();
        assert!(p.backoff_base <= p.backoff_cap);
        assert!(p.per_try_timeout < p.overall_timeout);
        assert!(p.max_attempts > 0);
        assert!((0.0..=1.0).contains(&p.jitter));
    }
}
