//! The enclave index's key type.
//!
//! The paper's enclave hash table holds the key item itself beside
//! `K_operation` and the pointer into untrusted memory (§3.7, §4), and its
//! slot model charges a 16-byte key (Table 1). A `Vec<u8>` key would cost a
//! 24-byte handle in the slot plus a heap chunk outside it, for every key.
//! [`InlineKey`] keeps keys of at most [`INLINE_KEY_BYTES`] bytes inside its
//! own 24 bytes and boxes only longer ones, so a table of YCSB keys holds no
//! per-key heap memory at all.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest key an [`InlineKey`] stores inside itself.
pub const INLINE_KEY_BYTES: usize = 22;

/// A byte-string key, stored inline when it is at most
/// [`INLINE_KEY_BYTES`] long and boxed otherwise; 24 bytes either way.
///
/// It hashes and compares exactly as its byte slice does, so a
/// table keyed by it is looked up by `&[u8]` and buckets, routes
/// ([`stable_key_hash`](crate::robinhood::stable_key_hash)) and iterates as
/// one keyed by `Vec<u8>`.
///
/// # Example
///
/// ```
/// use precursor_storage::key::InlineKey;
/// use precursor_storage::robinhood::{stable_key_hash, RobinHoodMap};
///
/// let key = InlineKey::from(&b"user0001"[..]);
/// assert_eq!(&*key, b"user0001");
/// assert_eq!(stable_key_hash(&key), stable_key_hash(&b"user0001"[..]));
///
/// let mut m = RobinHoodMap::new();
/// m.insert(key, 1);
/// assert_eq!(m.get(&b"user0001"[..]), Some(&1));
/// ```
#[derive(Clone)]
pub struct InlineKey(Repr);

// `Inline` holds exactly the keys of at most `INLINE_KEY_BYTES` bytes.
#[derive(Clone)]
enum Repr {
    // The key is the first `len` bytes.
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY_BYTES],
    },
    Heap(Box<[u8]>),
}

impl InlineKey {
    /// The key's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for InlineKey {
    fn from(key: &[u8]) -> InlineKey {
        if key.len() > INLINE_KEY_BYTES {
            return InlineKey(Repr::Heap(key.into()));
        }
        let mut bytes = [0; INLINE_KEY_BYTES];
        bytes[..key.len()].copy_from_slice(key);
        InlineKey(Repr::Inline {
            len: key.len() as u8,
            bytes,
        })
    }
}

impl Deref for InlineKey {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Borrow<[u8]> for InlineKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Hash for InlineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialEq for InlineKey {
    fn eq(&self, other: &InlineKey) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for InlineKey {}

impl fmt::Debug for InlineKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_bytes(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_24_bytes_and_boxes_only_keys_past_22() {
        assert_eq!(std::mem::size_of::<InlineKey>(), 24);
        assert_eq!(std::mem::size_of::<Option<InlineKey>>(), 24);
        for len in 0..=256 {
            let key = InlineKey::from(&vec![7u8; len][..]);
            assert_eq!(
                matches!(key.0, Repr::Inline { .. }),
                len <= INLINE_KEY_BYTES
            );
        }
    }
}
