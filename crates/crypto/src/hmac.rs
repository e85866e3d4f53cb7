//! HMAC-SHA-256 (RFC 2104) and a small HKDF-style key derivation.
//!
//! Used by the attestation model (`precursor-sgx`) to bind quotes to
//! nonces and to derive per-client session keys from the attestation shared
//! secret.

use crate::sha256::{digest, Midstate, Sha256, BLOCK_LEN, DIGEST_LEN};

/// HMAC-SHA-256 under one key, with the two padded-key blocks already
/// compressed: `inner` has absorbed `key ⊕ ipad`, `outer` `key ⊕ opad`.
/// A MAC is then a clone of each midstate plus the message and digest
/// blocks — for a caller that MACs many short messages under one key
/// ([`MacChain`](crate::chain::MacChain)) that is 3 compressions per
/// message instead of 5. Both midstates run on the kernel probed once, in
/// [`new`](Self::new): the inner hash holds a short message back as its
/// tail, so a message of up to 119 bytes is one kernel call for its two
/// blocks, and the outer hash's one block — the inner digest and its
/// padding, always at the same positions — is one more. The midstates are
/// key-equivalent secrets.
#[derive(Clone, PartialEq, Eq)]
pub struct HmacSha256 {
    inner: Midstate,
    outer: Midstate,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacSha256(<redacted>)")
    }
}

impl HmacSha256 {
    /// Hashes the two pads of `key` (any key length) once.
    pub fn new(key: &[u8]) -> HmacSha256 {
        HmacSha256::keyed(Sha256::new(), key)
    }

    /// [`new`](Self::new) on the portable kernel, whatever the CPU.
    #[cfg(test)]
    pub(crate) fn portable(key: &[u8]) -> HmacSha256 {
        HmacSha256::keyed(Sha256::portable(), key)
    }

    // The midstates of `key`'s pads on `fresh`'s kernel.
    fn keyed(fresh: Sha256, key: &[u8]) -> HmacSha256 {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        HmacSha256 {
            inner: fresh.midstate(&ipad),
            outer: fresh.midstate(&opad),
        }
    }

    /// The MAC of the concatenation of `parts`.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.resume();
        for part in parts {
            inner.update(part);
        }
        self.outer.finish_digest(&inner.finish())
    }
}

/// Computes HMAC-SHA-256 of `msg` under `key` (any key length).
///
/// # Example
///
/// ```
/// use precursor_crypto::hmac::hmac_sha256;
/// let a = hmac_sha256(b"key", b"msg");
/// let b = hmac_sha256(b"key", b"msg");
/// assert_eq!(a, b);
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    HmacSha256::new(key).mac(&[msg])
}

/// Derives `2 × 16` bytes of key material from a shared secret and context
/// labels — a two-step HKDF-expand specialization sufficient for the
/// attestation model.
pub fn derive_key_pair(secret: &[u8], info: &[u8]) -> ([u8; 16], [u8; 16]) {
    let prk = hmac_sha256(b"precursor-hkdf-salt", secret);
    let mut m1 = info.to_vec();
    m1.push(1);
    let okm1 = hmac_sha256(&prk, &m1);
    let mut m2 = okm1.to_vec();
    m2.extend_from_slice(info);
    m2.push(2);
    let okm2 = hmac_sha256(&prk, &m2);
    let mut k1 = [0u8; 16];
    let mut k2 = [0u8; 16];
    k1.copy_from_slice(&okm1[..16]);
    k2.copy_from_slice(&okm2[..16]);
    (k1, k2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2_jefe() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn midstates_are_reusable_and_parts_concatenate() {
        let ctx = HmacSha256::new(b"Jefe");
        let whole = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        for _ in 0..2 {
            assert_eq!(ctx.mac(&[b"what do ya want ", b"", b"for nothing?"]), whole);
        }
        // a message that spills into a second block after the pad
        let long = [0x61u8; 150];
        assert_eq!(
            ctx.mac(&[&long[..7], &long[7..]]),
            hmac_sha256(b"Jefe", &long)
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        let long_key = vec![0xAA; 100];
        let a = hmac_sha256(&long_key, b"m");
        let b = hmac_sha256(&digest(&long_key), b"m");
        assert_eq!(a, b);
    }

    #[test]
    fn key_and_message_sensitivity() {
        let base = hmac_sha256(b"k", b"m");
        assert_ne!(base, hmac_sha256(b"K", b"m"));
        assert_ne!(base, hmac_sha256(b"k", b"M"));
    }

    #[test]
    fn derive_key_pair_deterministic_and_distinct() {
        let (a1, a2) = derive_key_pair(b"shared-secret", b"client-7");
        let (b1, b2) = derive_key_pair(b"shared-secret", b"client-7");
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_ne!(a1, a2);
        let (c1, _) = derive_key_pair(b"shared-secret", b"client-8");
        assert_ne!(a1, c1);
    }
}
