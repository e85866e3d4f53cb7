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
//! * AES-128 — FIPS 197 appendices B and C.1;
//! * AES-128-GCM — NIST SP 800-38D: GCM spec test cases 1–4 and two NIST
//!   CAVP AAD-only vectors;
//! * AES-CMAC — RFC 4493 examples 1–4;
//! * Salsa20 — Bernstein's specification (quarter-round vectors and the
//!   §10 expansion example);
//! * SHA-256 — FIPS 180-4 ("abc", empty, two-block message, a million "a");
//! * HMAC-SHA-256 — RFC 4231 test cases 1 and 2.
//!
//! # Kernels
//!
//! Each primitive has a portable kernel and, on x86-64, one on the
//! instructions the paper's SGX SDK and libsodium use (the `x86` module):
//!
//! | primitive | portable | x86-64 |
//! |---|---|---|
//! | AES-128 | T-table round, algebraic S-box | AES-NI, four CTR blocks per pass |
//! | GHASH | Shoup's 4-bit tables | PCLMULQDQ, up to eight blocks per reduction on the key's `H`…`H⁸` |
//! | SHA-256 | FIPS 180-4 rounds | SHA extensions |
//! | Salsa20 | one block per pass | AVX-512F, sixteen blocks per pass; SSE2, four |
//!
//! The CPU picks the kernel: an `is_x86_feature_detected!` probe, never a
//! knob. [`aes::Aes128::new`], [`gcm::GcmKey::new`] and [`cmac::mac`] probe
//! when the key is expanded and keep the answer with the key, and a
//! [`sha256::Sha256`] (so an [`hmac::HmacSha256`]) when it is created;
//! [`salsa20::xor_keystream`] holds no state and probes on each call (the
//! probe is one cached load). The output bytes are the same either way.
//! The portable kernels are the only path off x86-64 or without the
//! instructions.
//!
//! The hardware kernels need raw intrinsics and unaligned loads, which no
//! safe API covers. The crate therefore *denies* rather than forbids that
//! class of code: a `forbid` cannot be lifted for one module, and the `x86`
//! module lifts the `deny` for itself alone. Every block there names, in a
//! `SAFETY` comment, the feature probe or the length it relies on.
//!
//! # Security note
//!
//! The portable kernels are **not constant-time**: the AES S-box and
//! T-table and the GHASH tables are indexed by secret-dependent bytes. The
//! AES-NI and PCLMULQDQ kernels have no lookups indexed by secret data, and
//! tag comparison ([`ct::ct_eq`]) is constant-time everywhere. None of this
//! is hardened against side channels beyond that; the crate is for the
//! simulation-based reproduction only, exactly as the paper itself excludes
//! side channels from its threat model (§2.3). Do not reuse it to protect
//! real data.
//!
//! # Test oracle
//!
//! The byte-oriented AES round and bit-serial GF(2¹²⁸) multiplication that
//! the table-driven kernels replaced are kept as a `#[cfg(test)]` oracle
//! (`src/reference.rs`). `tests/proptests.rs` checks the public API (on
//! x86-64 hosts with the instructions, the hardware kernels) against it on
//! seeded random input, and the unit tests in `src/kernel_pairs.rs` run
//! every check once per kernel, so the portable kernels stay checked on
//! hosts that never select them.
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

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aes;
pub mod chain;
pub mod cmac;
pub mod ct;
pub mod error;
pub mod gcm;
pub mod hmac;
#[cfg(test)]
mod kernel_pairs;
pub mod keys;
#[cfg(test)]
mod reference;
pub mod salsa20;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use chain::MacChain;
pub use error::CryptoError;
pub use keys::{Key128, Key256, Nonce12, Nonce8, Tag};
