//! Cryptographic primitives for the Precursor reproduction.
//!
//! The Precursor paper's protocol is defined in terms of specific algorithms
//! (§4): AES-128-GCM for transport ("session") encryption, Salsa20 with a
//! 256-bit one-time key for payload encryption, and AES-128-CMAC
//! (`sgx_rijndael128_cmac_msg`) for payload MACs. The ShieldStore baseline
//! additionally hashes bucket MACs into a Merkle tree (SHA-256).
//!
//! No cryptography crate is available in this offline environment, so the
//! primitives are implemented here from their specifications and validated
//! against published test vectors:
//!
//! * AES-128 — FIPS 197 appendices B and C.1 (S-box and encryption T-table
//!   derived algebraically at compile time);
//! * AES-128-GCM — NIST SP 800-38D: GCM spec test cases 1–4 and two NIST
//!   CAVP AAD-only vectors (GHASH by Shoup's 4-bit tables);
//! * AES-CMAC — RFC 4493 examples 1–4;
//! * Salsa20 — Bernstein's specification (quarter-round vectors, expansion);
//! * SHA-256 — FIPS 180-4 ("abc", empty, two-block message);
//! * HMAC-SHA-256 — RFC 4231 test case 1.
//!
//! # Security note
//!
//! These implementations are **not constant-time** — the AES S-box and
//! T-table and the GHASH tables are indexed by secret-dependent bytes; only
//! tag comparison ([`ct::ct_eq`]) is — and are intended for the
//! simulation-based reproduction only, exactly as the paper itself excludes
//! side channels from its threat model (§2.3). Do not reuse them to protect
//! real data.
//!
//! # Test oracle
//!
//! The byte-oriented AES round and bit-serial GF(2¹²⁸) multiplication that
//! the table-driven kernels replaced are kept as a `#[cfg(test)]` oracle
//! (`src/reference.rs`); `tests/proptests.rs` checks the kernels and the
//! modes built on them against it on seeded random input.
//!
//! # Example
//!
//! ```
//! use precursor_crypto::{gcm, keys::{Key128, Nonce12}};
//!
//! let key = Key128::from_bytes([7u8; 16]);
//! let nonce = Nonce12::from_bytes([1u8; 12]);
//! let sealed = gcm::seal(&key, &nonce, b"header", b"secret");
//! let opened = gcm::open(&key, &nonce, b"header", &sealed).unwrap();
//! assert_eq!(opened, b"secret");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod chain;
pub mod cmac;
pub mod ct;
pub mod error;
pub mod gcm;
pub mod hmac;
pub mod keys;
#[cfg(test)]
mod reference;
pub mod salsa20;
pub mod sha256;

pub use chain::MacChain;
pub use error::CryptoError;
pub use keys::{Key128, Key256, Nonce12, Nonce8, Tag};
