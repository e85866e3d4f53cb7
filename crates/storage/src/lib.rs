//! Storage substrates for the Precursor reproduction.
//!
//! * [`robinhood`] — the open-addressing Robin Hood hash table the paper
//!   hosts *inside* the enclave (§4, citing Celis et al.): open addressing
//!   with backward-shift deletion, no chaining pointers, and explicit probe
//!   and memory accounting so the SGX model can charge EPC page touches.
//! * [`key`] — the table's key type, [`InlineKey`]: short keys live inside
//!   the slot, longer ones on the heap.
//! * [`pool`] — the pre-allocated *untrusted* payload pool the server hands
//!   out slots from; growing the pool is the paper's single batched ocall.
//! * [`ring`] — per-client circular buffers for incoming requests and
//!   outgoing replies, written remotely with one-sided RDMA WRITEs; the
//!   producer tracks credits so clients never overwrite unprocessed data
//!   (§3.5, §3.7).
//! * [`sparse`] — the byte stores rings and registered regions run over:
//!   dense `Vec<u8>`, and page-sparse [`SparseBytes`] whose resident pages
//!   are the ones that may hold a non-zero byte.
//!
//! # Example
//!
//! ```
//! use precursor_storage::robinhood::RobinHoodMap;
//!
//! let mut map = RobinHoodMap::new();
//! map.insert(b"k1".to_vec(), 42u32);
//! assert_eq!(map.get(&b"k1".to_vec()), Some(&42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod pool;
pub mod ring;
pub mod robinhood;
pub mod sparse;

pub use key::InlineKey;
pub use pool::{PoolRange, SlabPool};
pub use ring::{RingConsumer, RingProducer, RingStore, RingWrites};
pub use robinhood::{shard_of_hash, stable_key_hash, RobinHoodMap, ShardedRobinHoodMap};
pub use sparse::{ByteStore, SparseBytes, PAGE_BYTES};
