//! Sealed storage (the `EGETKEY`/sealing model).
//!
//! SGX enclaves can derive a *sealing key* bound to the platform and the
//! enclave measurement, letting them encrypt state for storage outside the
//! enclave such that only the same enclave on the same platform can decrypt
//! it. The paper touches this in §2.1: persisted state needs trusted
//! monotonic counters to "detect state rollback attacks and forking" —
//! [`seal`]/[`unseal`] bind a version number into the sealed blob so the
//! counter check composes (see [`crate::counters`]).
//!
//! **Nonce discipline.** Everything sealed under one sealing key shares one
//! AES-GCM nonce space, and a `(key, nonce)` pair must never cover two
//! different plaintexts. The rule: one RNG draw per sealed object — the
//! 96-bit nonce [`seal`] draws — and every further nonce that object needs
//! (the independently sealed parts of a snapshot) is *derived* from
//! that draw with [`segment_nonce`], which never returns the draw itself
//! and never returns the same nonce for two indices. A seal that is
//! retried after the host damaged the first attempt draws again: the
//! retry covers different bytes (or the same bytes at a later state) and
//! must not share any nonce with the attempt it replaces.

use precursor_crypto::gcm::{self, GcmKey};
use precursor_crypto::keys::{Key128, Nonce12};
use precursor_crypto::CryptoError;
use precursor_sim::rng::SimRng;

use crate::attest::AttestationService;
use crate::enclave::Enclave;

impl AttestationService {
    /// Derives the platform+measurement-bound sealing key for `enclave` —
    /// the model of `EGETKEY` with `KEYNAME = SEAL_KEY`: stable across
    /// enclave restarts on the same platform, different on any other
    /// platform or for any other enclave binary.
    pub fn sealing_key(&self, enclave: &Enclave) -> Key128 {
        let mut msg = Vec::with_capacity(40);
        msg.extend_from_slice(&enclave.measurement());
        msg.extend_from_slice(b"seal-key");
        let okm = precursor_crypto::hmac::hmac_sha256(self.platform_key_bytes(), &msg);
        let mut k = [0u8; 16];
        k.copy_from_slice(&okm[..16]);
        Key128::from_bytes(k)
    }
}

/// Seals `plaintext` under `key`, authenticating `version` (the monotonic
/// counter value at sealing time). Layout: `nonce ‖ GCM(ciphertext ‖ tag)`.
pub fn seal(key: &Key128, version: u64, plaintext: &[u8], rng: &mut SimRng) -> Vec<u8> {
    seal_at(key, &Nonce12::generate(rng), version, plaintext)
}

/// [`seal`] under a nonce the caller already drew — for an object whose
/// parts are sealed under nonces derived from it ([`segment_nonce`]) before
/// the object itself is.
pub fn seal_at(key: &Key128, nonce: &Nonce12, version: u64, plaintext: &[u8]) -> Vec<u8> {
    seal_at_keyed(&GcmKey::new(key), nonce, version, plaintext)
}

/// [`seal_at`] under a sealing key whose [`GcmKey`] the caller already
/// built — a snapshot cut seals its manifest and its part under one.
pub fn seal_at_keyed(key: &GcmKey, nonce: &Nonce12, version: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + plaintext.len() + gcm::TAG_LEN);
    out.extend_from_slice(nonce.as_bytes());
    key.seal_into(&mut out, nonce, &version.to_le_bytes(), plaintext);
    out
}

/// The nonce of part `index` of an object sealed under `drawn`: the draw
/// with `index + 1` folded into its last four bytes. Distinct per index and
/// never `drawn` itself, so the object and all its parts can share one key.
pub fn segment_nonce(drawn: &Nonce12, index: u32) -> Nonce12 {
    let mut b = *drawn.as_bytes();
    for (b, x) in b[8..].iter_mut().zip((index + 1).to_be_bytes()) {
        *b ^= x;
    }
    Nonce12::from_bytes(b)
}

/// Derives the sealing sub-key for a journal epoch from the enclave's
/// sealing key. `epoch` is the trusted monotonic counter value the journal
/// was opened at, so every journal generation is sealed under a distinct
/// key: a host replaying an earlier epoch's byte stream (journal rollback)
/// cannot even decrypt it under the current epoch, composing with the
/// counter check the same way snapshot versions do.
pub fn journal_key(seal_key: &Key128, epoch: u64) -> Key128 {
    let mut msg = Vec::with_capacity(24);
    msg.extend_from_slice(b"journal-epoch");
    msg.extend_from_slice(&epoch.to_le_bytes());
    let okm = precursor_crypto::hmac::hmac_sha256(seal_key.as_bytes(), &msg);
    let mut k = [0u8; 16];
    k.copy_from_slice(&okm[..16]);
    Key128::from_bytes(k)
}

/// Unseals a blob produced by [`seal`], verifying it was sealed at exactly
/// `version`.
///
/// # Errors
///
/// [`CryptoError::InvalidLength`] for truncated blobs;
/// [`CryptoError::InvalidTag`] if the key, the blob or the claimed version
/// do not match (e.g. a rolled-back snapshot presented with a newer
/// counter value).
pub fn unseal(key: &Key128, version: u64, blob: &[u8]) -> Result<Vec<u8>, CryptoError> {
    unseal_keyed(&GcmKey::new(key), version, blob)
}

/// [`unseal`] under an already built [`GcmKey`].
///
/// # Errors
///
/// As [`unseal`].
pub fn unseal_keyed(key: &GcmKey, version: u64, blob: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if blob.len() < 12 + gcm::TAG_LEN {
        return Err(CryptoError::InvalidLength);
    }
    let nonce = Nonce12::try_from(&blob[..12])?;
    key.open(&nonce, &version.to_le_bytes(), &blob[12..])
}

/// Whether `blob` would [`unseal`] at `version` — authenticated, not
/// decrypted. What an enclave needs of bytes it sealed itself and the host
/// wrote out: that they are still the bytes it sealed.
pub fn verify_keyed(key: &GcmKey, version: u64, blob: &[u8]) -> bool {
    if blob.len() < 12 + gcm::TAG_LEN {
        return false;
    }
    let (nonce, sealed) = blob.split_at(12);
    let (ct, tag) = sealed.split_at(sealed.len() - gcm::TAG_LEN);
    let nonce = Nonce12::try_from(nonce).expect("12 bytes");
    key.verify_detached(&nonce, &version.to_le_bytes(), ct, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use precursor_sim::CostModel;

    fn setup() -> (AttestationService, Enclave, SimRng) {
        let mut rng = SimRng::seed_from(7);
        let svc = AttestationService::new(&mut rng);
        let enclave = Enclave::new(&CostModel::default());
        (svc, enclave, rng)
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let (svc, enclave, mut rng) = setup();
        let key = svc.sealing_key(&enclave);
        let blob = seal(&key, 3, b"enclave state", &mut rng);
        assert_eq!(unseal(&key, 3, &blob).unwrap(), b"enclave state");
    }

    #[test]
    fn segment_nonces_are_distinct_and_never_the_draw() {
        let drawn = Nonce12::generate(&mut SimRng::seed_from(3));
        let mut seen = std::collections::HashSet::from([drawn]);
        for index in 0..4096 {
            assert!(seen.insert(segment_nonce(&drawn, index)), "index {index}");
        }
    }

    #[test]
    fn seal_at_is_seal_with_the_nonce_drawn_first() {
        let (svc, enclave, _) = setup();
        let key = svc.sealing_key(&enclave);
        let nonce = Nonce12::generate(&mut SimRng::seed_from(5));
        let blob = seal(&key, 9, b"state", &mut SimRng::seed_from(5));
        assert_eq!(seal_at(&key, &nonce, 9, b"state"), blob);
    }

    #[test]
    fn sealing_key_is_stable_per_platform_and_enclave() {
        let (svc, enclave, _) = setup();
        assert_eq!(svc.sealing_key(&enclave), svc.sealing_key(&enclave));
        // a different platform derives a different key
        let other_platform = AttestationService::new(&mut SimRng::seed_from(99));
        assert_ne!(
            svc.sealing_key(&enclave),
            other_platform.sealing_key(&enclave)
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        // A rollback: blob sealed at version 1, presented when the counter
        // says 2.
        let (svc, enclave, mut rng) = setup();
        let key = svc.sealing_key(&enclave);
        let blob = seal(&key, 1, b"old state", &mut rng);
        assert_eq!(unseal(&key, 2, &blob), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn tampered_blob_is_rejected() {
        let (svc, enclave, mut rng) = setup();
        let key = svc.sealing_key(&enclave);
        let mut blob = seal(&key, 1, b"state", &mut rng);
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert_eq!(unseal(&key, 1, &blob), Err(CryptoError::InvalidTag));
        assert_eq!(
            unseal(&key, 1, &blob[..10]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn verify_agrees_with_unseal_without_decrypting() {
        let (svc, enclave, mut rng) = setup();
        let root = svc.sealing_key(&enclave);
        let key = GcmKey::new(&root);
        let blob = seal(&root, 4, b"manifest", &mut rng);
        assert_eq!(unseal_keyed(&key, 4, &blob).unwrap(), b"manifest");
        assert!(verify_keyed(&key, 4, &blob));
        assert!(!verify_keyed(&key, 5, &blob), "another version");
        assert!(!verify_keyed(&key, 4, &blob[..27]), "shorter than a seal");
        for at in 0..blob.len() {
            let mut damaged = blob.clone();
            damaged[at] ^= 0x20;
            assert!(!verify_keyed(&key, 4, &damaged), "byte {at}");
            assert!(unseal_keyed(&key, 4, &damaged).is_err(), "byte {at}");
        }
    }

    #[test]
    fn journal_keys_differ_per_epoch_and_platform() {
        let (svc, enclave, _) = setup();
        let root = svc.sealing_key(&enclave);
        assert_eq!(journal_key(&root, 4), journal_key(&root, 4));
        assert_ne!(journal_key(&root, 4), journal_key(&root, 5));
        assert_ne!(journal_key(&root, 4), root);
        let other = AttestationService::new(&mut SimRng::seed_from(99));
        assert_ne!(
            journal_key(&root, 4),
            journal_key(&other.sealing_key(&enclave), 4)
        );
    }

    #[test]
    fn wrong_platform_cannot_unseal() {
        let (svc, enclave, mut rng) = setup();
        let blob = seal(&svc.sealing_key(&enclave), 1, b"state", &mut rng);
        let other = AttestationService::new(&mut SimRng::seed_from(99));
        assert!(unseal(&other.sealing_key(&enclave), 1, &blob).is_err());
    }
}
