//! AES-128-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! The paper's clients MAC the Salsa20-encrypted payload with
//! `sgx_rijndael128_cmac_msg`, i.e. AES-128-CMAC, so integrity can be
//! verified by whoever holds the one-time key `K_operation` (§4).
//!
//! The chain runs on the kernel [`Aes128::new`] picks for the key (AES-NI
//! where the CPU has it), one block at a time, since each block encrypts
//! the previous one's output. So unlike GCM's CTR and GHASH or Salsa20 it
//! does not widen: a call MACs one message, and no two of its blocks can
//! be in the AES unit at once.

use crate::aes::Aes128;
use crate::keys::{Key128, Tag};

fn dbl(block: [u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        let b = block[i];
        out[i] = (b << 1) | carry;
        carry = b >> 7;
    }
    if carry == 1 {
        out[15] ^= 0x87;
    }
    out
}

/// Computes the AES-128-CMAC of `msg` under `key`.
///
/// # Example
///
/// ```
/// use precursor_crypto::cmac::mac;
/// use precursor_crypto::keys::Key128;
/// let t1 = mac(&Key128::from_bytes([1; 16]), b"data");
/// let t2 = mac(&Key128::from_bytes([1; 16]), b"data");
/// assert_eq!(t1, t2);
/// ```
pub fn mac(key: &Key128, msg: &[u8]) -> Tag {
    mac_with(&Aes128::new(key), msg)
}

/// [`mac`] on an expanded key.
pub(crate) fn mac_with(cipher: &Aes128, msg: &[u8]) -> Tag {
    let k1 = dbl(cipher.zero_block());
    let k2 = dbl(k1);
    // Every block but the last is chained as it is; the last is XORed with
    // K1 when complete, padded and XORed with K2 otherwise.
    let n_blocks = msg.len().div_ceil(16).max(1);
    let (head, rest) = msg.split_at((n_blocks - 1) * 16);
    let mut last = [0u8; 16];
    last[..rest.len()].copy_from_slice(rest);
    let subkey = if rest.len() == 16 {
        k1
    } else {
        last[rest.len()] = 0x80;
        k2
    };
    for (b, k) in last.iter_mut().zip(subkey) {
        *b ^= k;
    }
    Tag::from_bytes(cipher.cbc_mac(head, last))
}

/// Verifies a CMAC tag (no early exit in the comparison).
pub fn verify(key: &Key128, msg: &[u8], tag: &Tag) -> bool {
    mac(key, msg).verify(tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn h2b(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    fn rfc_key() -> Key128 {
        Key128::try_from(h2b("2b7e151628aed2a6abf7158809cf4f3c").as_slice()).unwrap()
    }

    fn rfc_msg() -> Vec<u8> {
        h2b("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710")
    }

    /// The crate's CMAC and the test oracle's must both give the RFC's tag.
    fn assert_rfc_tag(msg: &[u8], tag: &str) {
        let tag = h2b(tag);
        assert_eq!(mac(&rfc_key(), msg).as_bytes().to_vec(), tag);
        assert_eq!(reference::cmac(rfc_key().as_bytes(), msg).to_vec(), tag);
    }

    #[test]
    fn rfc4493_example_1_empty() {
        assert_rfc_tag(b"", "bb1d6929e95937287fa37d129b756746");
    }

    #[test]
    fn rfc4493_example_2_16_bytes() {
        assert_rfc_tag(&rfc_msg()[..16], "070a16b46b4d4144f79bdd9dd04a287c");
    }

    #[test]
    fn rfc4493_example_3_40_bytes() {
        assert_rfc_tag(&rfc_msg()[..40], "dfa66747de9ae63030ca32611497c827");
    }

    #[test]
    fn rfc4493_example_4_64_bytes() {
        assert_rfc_tag(&rfc_msg(), "51f0bebf7e3b9d92fc49741779363cfe");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let key = Key128::from_bytes([5; 16]);
        let tag = mac(&key, b"payload bytes");
        assert!(verify(&key, b"payload bytes", &tag));
        assert!(!verify(&key, b"payload bytez", &tag));
        assert!(!verify(
            &Key128::from_bytes([6; 16]),
            b"payload bytes",
            &tag
        ));
    }

    #[test]
    fn length_extension_like_inputs_differ() {
        let key = Key128::from_bytes([5; 16]);
        // messages around the block boundary must all have distinct tags
        let mut tags = std::collections::HashSet::new();
        for len in 0..48usize {
            let msg = vec![0xAB; len];
            assert!(
                tags.insert(mac(&key, &msg).as_bytes().to_vec()),
                "len {len}"
            );
        }
    }

    #[test]
    fn dbl_shifts_and_reduces() {
        // doubling a block with MSB clear is a plain shift
        let mut b = [0u8; 16];
        b[15] = 0x01;
        assert_eq!(dbl(b)[15], 0x02);
        // MSB set triggers the 0x87 reduction
        let mut c = [0u8; 16];
        c[0] = 0x80;
        let d = dbl(c);
        assert_eq!(d[15], 0x87);
        assert_eq!(d[0], 0x00);
    }
}
