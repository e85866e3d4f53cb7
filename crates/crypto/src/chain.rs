//! Chained MACs over an ordered message stream.
//!
//! A [`MacChain`] authenticates not just each message but its *position in
//! the stream*: every tag is an HMAC over the previous tag and the current
//! message, so a verifier holding the same key and starting state detects
//! any reordering, substitution or truncation of the sequence — the
//! mechanism Precursor's clients use to detect a Byzantine host splicing
//! stale control replies into a session (cf. Brandenburger et al.'s
//! lightweight collective memory, which hashes client operations into a
//! per-session chain for the same reason).
//!
//! The chain self-heals across *gaps*: when the verifier knows it missed
//! messages (a lost reply it timed out on), it may [`resync`](MacChain::resync)
//! to the received tag — the link itself is still authenticated by the
//! transport layer, only the connection to the missed prefix is skipped.
//!
//! # Example
//!
//! ```
//! use precursor_crypto::chain::MacChain;
//! use precursor_crypto::Key128;
//!
//! let key = Key128::from_bytes([7u8; 16]);
//! let mut sender = MacChain::new(&key, b"session-1");
//! let mut receiver = MacChain::new(&key, b"session-1");
//!
//! let t1 = sender.advance(b"reply one");
//! let t2 = sender.advance(b"reply two");
//! assert_eq!(receiver.advance(b"reply one"), t1);
//! assert_eq!(receiver.advance(b"reply two"), t2);
//! ```

use crate::hmac::HmacSha256;
use crate::keys::{Key128, Tag};

/// A rolling MAC chain: `tag_i = HMAC(key, state_{i-1} ‖ msg_i)[..16]`,
/// `state_i = tag_i`. Both endpoints construct it from the shared key and a
/// context string (which should bind the session identity and epoch), then
/// advance it once per message in stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacChain {
    // The key's two HMAC pad blocks, hashed once: every reply advances the
    // chain, so re-deriving them per tag was 2 of its 5 compressions.
    hmac: HmacSha256,
    state: [u8; 16],
}

impl MacChain {
    /// Creates a chain keyed by `key`, with the starting state derived from
    /// `context` (bind the session id and epoch here so chains from
    /// different sessions or epochs never collide).
    pub fn new(key: &Key128, context: &[u8]) -> MacChain {
        let hmac = HmacSha256::new(key.as_bytes());
        let seed = hmac.mac(&[context]);
        let mut state = [0u8; 16];
        state.copy_from_slice(&seed[..16]);
        MacChain { hmac, state }
    }

    /// Absorbs the next message and returns its chained tag.
    pub fn advance(&mut self, msg: &[u8]) -> Tag {
        let mac = self.hmac.mac(&[&self.state, msg]);
        self.state.copy_from_slice(&mac[..16]);
        Tag::from_bytes(self.state)
    }

    /// Adopts `tag` as the current state without verifying the link to the
    /// previous state — used by a verifier that *knows* it missed messages
    /// and wants to continue checking the suffix of the stream.
    pub fn resync(&mut self, tag: &Tag) {
        self.state.copy_from_slice(tag.as_bytes());
    }

    /// The current chain state (the last tag produced or resynced to).
    pub fn state(&self) -> [u8; 16] {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key128 {
        Key128::from_bytes([0x42; 16])
    }

    #[test]
    fn same_inputs_same_chain() {
        let mut a = MacChain::new(&key(), b"ctx");
        let mut b = MacChain::new(&key(), b"ctx");
        for i in 0..10u8 {
            assert_eq!(a.advance(&[i]), b.advance(&[i]));
        }
    }

    #[test]
    fn tags_are_the_plain_hmac_of_state_and_message() {
        use crate::hmac::hmac_sha256;
        let k = key();
        let mut chain = MacChain::new(&k, b"ctx");
        let mut state = hmac_sha256(k.as_bytes(), b"ctx")[..16].to_vec();
        for msg in [&b"short"[..], &[0xa5u8; 70], &[7u8; 200]] {
            let mut input = state.clone();
            input.extend_from_slice(msg);
            let expected = &hmac_sha256(k.as_bytes(), &input)[..16];
            assert_eq!(chain.advance(msg).as_bytes(), expected);
            state = expected.to_vec();
        }
    }

    #[test]
    fn order_matters() {
        let mut a = MacChain::new(&key(), b"ctx");
        let mut b = MacChain::new(&key(), b"ctx");
        a.advance(b"x");
        a.advance(b"y");
        b.advance(b"y");
        b.advance(b"x");
        assert_ne!(a.state(), b.state());
    }

    #[test]
    fn context_separates_chains() {
        let mut a = MacChain::new(&key(), b"epoch-1");
        let mut b = MacChain::new(&key(), b"epoch-2");
        assert_ne!(a.advance(b"m"), b.advance(b"m"));
    }

    #[test]
    fn key_separates_chains() {
        let mut a = MacChain::new(&key(), b"ctx");
        let mut b = MacChain::new(&Key128::from_bytes([1; 16]), b"ctx");
        assert_ne!(a.advance(b"m"), b.advance(b"m"));
    }

    #[test]
    fn substitution_breaks_verification() {
        let mut sender = MacChain::new(&key(), b"ctx");
        let t1 = sender.advance(b"real reply");
        let mut verifier = MacChain::new(&key(), b"ctx");
        assert_ne!(verifier.advance(b"forged reply"), t1);
    }

    #[test]
    fn resync_recovers_after_gap() {
        let mut sender = MacChain::new(&key(), b"ctx");
        let _t1 = sender.advance(b"one");
        let t2 = sender.advance(b"two"); // receiver misses "one" and "two"
        let t3 = sender.advance(b"three");

        let mut receiver = MacChain::new(&key(), b"ctx");
        // without the missed prefix the tag cannot be reproduced ...
        assert_ne!(receiver.advance(b"three"), t3);
        // ... but resyncing to the last delivered tag re-joins the chain
        receiver.resync(&t2);
        assert_eq!(receiver.advance(b"three"), t3);
        assert_eq!(receiver.advance(b"four"), sender.advance(b"four"));
    }
}
