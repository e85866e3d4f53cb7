//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the paper's transport ("session") encryption: control data is
//! sealed under the per-client `K_session` with the request's AAD, giving
//! confidentiality, integrity and client authenticity in one pass (§3.4, §4).
//! The same construction seals journal records and enclave snapshots.
//!
//! Two GHASH kernels, chosen once per [`GcmKey`] like its AES kernel. Where
//! the CPU has PCLMULQDQ, the multiplication by the hash key `H` is a
//! carry-less multiply and a reduction (`crate::x86`), and the key holds
//! the powers `H` to `H⁸`, computed once when it is built: every message,
//! whatever its length, folds up to eight blocks (by `H⁸` down to `H`) per
//! reduction. Elsewhere it uses Shoup's 4-bit tables: the 16 nibble
//! multiples of `H` and of `H·x⁴` are built from `H` once per key, and a
//! block is then 16 byte steps of two lookups, a byte shift and one
//! reduction lookup — instead of 128 conditional shift-and-XOR steps.
//! The table lookups are indexed by secret-dependent bytes, so like the AES
//! tables they are **not constant-time**; the carry-less path has no such
//! lookups, and tag comparison is constant-time on both ([`ct_eq`]).
//!
//! [`GcmKey`] is the one implementation. A holder of a long-lived key (a
//! client's `K_session`, a journal, a snapshot cut) builds it once and pays
//! the AES key schedule, `H = E(0)` and its powers or tables once; the free functions
//! [`seal`], [`seal_into`], [`open`] and [`open_detached`] run the same
//! code on a context built for the one call.

use crate::aes::Aes128;
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::keys::{Key128, Nonce12, Tag};
#[cfg(target_arch = "x86_64")]
use crate::x86::Clmul;

/// GCM tag length in bytes.
pub const TAG_LEN: usize = 16;

const fn build_rem8() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut r = 0usize;
    while r < 256 {
        // Bit 7 of the byte shifted out is the coefficient that becomes
        // x¹²⁸ = 1 + x + x² + x⁷, i.e. 0xE1 in the top byte; bit 0 is x¹³⁵.
        let mut k = 0;
        while k < 8 {
            if (r >> k) & 1 == 1 {
                t[r] ^= 0xE100u16 >> (7 - k);
            }
            k += 1;
        }
        r += 1;
    }
    t
}

/// `REM8[r] << 112` is what `z >> 8` (multiplication by x⁸) must fold back
/// in when `r` was the byte shifted out.
static REM8: [u16; 256] = build_rem8();

/// Multiplication by `x` in GF(2¹²⁸). Bit 0 is the most significant bit per
/// the GCM spec, so this is a right shift.
fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ ((v & 1) * (0xE1u128 << 120))
}

/// Division by `x`, the inverse of [`mul_x`]: a product's top bit is set
/// exactly when `mul_x` folded the reduction polynomial in.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) fn div_x(v: u128) -> u128 {
    let folded = v >> 127;
    ((v ^ (folded * (0xE1u128 << 120))) << 1) | folded
}

/// Shoup's 4-bit tables for one hash key: `hi[n] = n · H` and
/// `lo[n] = n · H · x⁴` for every nibble `n`, so a byte of the multiplicand
/// costs two lookups and one `REM8` step. 512 B, built once per
/// [`GcmKey`].
#[derive(Clone)]
pub(crate) struct HTable {
    hi: [u128; 16],
    lo: [u128; 16],
}

impl HTable {
    fn new(h: u128) -> HTable {
        // A nibble's most significant bit is its lowest power of x.
        let mut t = [[0u128; 16]; 2];
        let mut v = h;
        for half in &mut t {
            for bit in [8, 4, 2, 1] {
                half[bit] = v;
                v = mul_x(v);
            }
            for bit in [2, 4, 8] {
                for j in 1..bit {
                    half[bit + j] = half[bit] ^ half[j];
                }
            }
        }
        let [hi, lo] = t;
        HTable { hi, lo }
    }

    /// `x · H`: Horner's rule over the bytes of `x`, highest powers first.
    fn mul(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for byte in x.to_le_bytes() {
            let product = self.hi[usize::from(byte >> 4)] ^ self.lo[usize::from(byte & 0xf)];
            let folded = u128::from(REM8[(z & 0xff) as usize]) << 112;
            z = (z >> 8) ^ (product ^ folded);
        }
        z
    }

    /// Folds `data`, zero-padded to whole blocks, into `y`.
    fn update(&self, mut y: u128, data: &[u8]) -> u128 {
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let block = block.try_into().expect("chunks_exact yields 16 bytes");
            y = self.mul(y ^ u128::from_be_bytes(block));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            y = self.mul(y ^ u128::from_be_bytes(block));
        }
        y
    }

    /// GHASH of `aad` and `ct` (SP 800-38D §6.4): each zero-padded to whole
    /// blocks, followed by their lengths in bits.
    fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        let y = self.update(self.update(0, aad), ct);
        let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        self.mul(y ^ lens)
    }
}

/// GHASH under one hash key, on the kernel chosen when it was built.
#[derive(Clone)]
pub(crate) enum Ghash {
    /// Shoup's tables, boxed so that a [`GcmKey`] stays small on both paths.
    Shoup(Box<HTable>),
    /// The carry-less kernel and the key's powers `H` to `H⁸`.
    #[cfg(target_arch = "x86_64")]
    Clmul(Clmul, [[u8; 16]; 8]),
}

impl Ghash {
    /// The carry-less kernel when the CPU has it, Shoup's tables otherwise.
    fn new(h: u128) -> Ghash {
        #[cfg(target_arch = "x86_64")]
        if let Some(clmul) = Clmul::detect() {
            return Ghash::Clmul(clmul, clmul.powers(h));
        }
        Ghash::portable(h)
    }

    pub(crate) fn portable(h: u128) -> Ghash {
        Ghash::Shoup(Box::new(HTable::new(h)))
    }

    pub(crate) fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        match self {
            Ghash::Shoup(table) => table.ghash(aad, ct),
            #[cfg(target_arch = "x86_64")]
            Ghash::Clmul(clmul, powers) => clmul.ghash(powers, aad, ct),
        }
    }
}

/// GHASH under hash key `h` (SP 800-38D §6.4) of `aad` and `ct`, each
/// zero-padded to whole blocks, followed by their lengths in bits.
pub fn ghash(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    Ghash::new(u128::from_be_bytes(*h))
        .ghash(aad, ct)
        .to_be_bytes()
}

fn j0(nonce: &Nonce12) -> [u8; 16] {
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(nonce.as_bytes());
    j0[15] = 1;
    j0
}

/// An AES-128-GCM key with its set-up already paid: the AES round keys and
/// `H = E(0)` with its powers `H²` to `H⁸` (on the portable path, the GHASH
/// tables of `H` instead). Build
/// one per long-lived key and reuse it for every message; the bytes
/// produced are those of the free functions of this module, which build
/// one per call.
///
/// # Example
///
/// ```
/// use precursor_crypto::gcm::{self, GcmKey};
/// use precursor_crypto::keys::{Key128, Nonce12};
/// let key = Key128::from_bytes([7; 16]);
/// let keyed = GcmKey::new(&key);
/// let nonce = Nonce12::from_counter(1);
/// let sealed = keyed.seal(&nonce, b"header", b"secret");
/// assert_eq!(sealed, gcm::seal(&key, &nonce, b"header", b"secret"));
/// let (ct, tag) = sealed.split_at(sealed.len() - gcm::TAG_LEN);
/// assert!(keyed.verify_detached(&nonce, b"header", ct, tag));
/// ```
#[derive(Clone)]
pub struct GcmKey {
    cipher: Aes128,
    hash: Ghash,
}

impl std::fmt::Debug for GcmKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Round keys and the multiples of H are all key material.
        f.write_str("GcmKey(<redacted>)")
    }
}

impl GcmKey {
    /// Expands `key`: the AES key schedule, `H = E(0)` and its powers, on
    /// AES-NI and PCLMULQDQ when the CPU has them.
    pub fn new(key: &Key128) -> GcmKey {
        let cipher = Aes128::new(key);
        let h = u128::from_be_bytes(cipher.zero_block());
        GcmKey {
            cipher,
            hash: Ghash::new(h),
        }
    }

    /// The portable kernels, whatever the CPU: what the hardware ones are
    /// tested against.
    #[cfg(test)]
    pub(crate) fn portable(key: &Key128) -> GcmKey {
        let cipher = Aes128::portable(key);
        let h = u128::from_be_bytes(cipher.zero_block());
        GcmKey {
            cipher,
            hash: Ghash::portable(h),
        }
    }

    fn tag(&self, j0: &[u8; 16], aad: &[u8], ct: &[u8]) -> Tag {
        // `E(J0)` first: its rounds then run beside GHASH's products.
        let ekj0 = u128::from_be_bytes(self.cipher.encrypt_block(*j0));
        let s = self.hash.ghash(aad, ct);
        Tag::from_bytes((s ^ ekj0).to_be_bytes())
    }

    /// Encrypts `plaintext` and authenticates it together with `aad`.
    /// Returns `ciphertext ‖ tag` (tag is the trailing [`TAG_LEN`] bytes).
    pub fn seal(&self, nonce: &Nonce12, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(&mut out, nonce, aad, plaintext);
        out
    }

    /// [`seal`](Self::seal), appending `ciphertext ‖ tag` to `out` instead
    /// of allocating: for callers that frame the sealed bytes (a nonce in
    /// front, a record header around) and would otherwise copy the whole
    /// message to do so.
    pub fn seal_into(&self, out: &mut Vec<u8>, nonce: &Nonce12, aad: &[u8], plaintext: &[u8]) {
        let start = out.len();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, aad, &mut out[start..]);
        out.extend_from_slice(tag.as_bytes());
    }

    /// Encrypts `buf` in place and returns the tag over the ciphertext and
    /// `aad`: [`seal`](Self::seal) for a caller that owns the plaintext
    /// buffer and keeps the tag apart from it (a manifest row), so the
    /// message is never copied.
    pub fn seal_in_place_detached(&self, nonce: &Nonce12, aad: &[u8], buf: &mut [u8]) -> Tag {
        let j0 = j0(nonce);
        self.cipher.ctr32_xor(&j0, buf);
        self.tag(&j0, aad, buf)
    }

    /// Decrypts `sealed` (`ciphertext ‖ tag`) and verifies the tag over the
    /// ciphertext and `aad`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `sealed` is shorter than a
    /// tag and [`CryptoError::InvalidTag`] if authentication fails (wrong
    /// key, wrong nonce, tampered ciphertext or tampered AAD).
    pub fn open(&self, nonce: &Nonce12, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        self.open_detached(nonce, aad, ct, tag)
    }

    /// [`open`](Self::open) for a tag stored apart from its ciphertext (a
    /// manifest that lists the tags of the parts it authenticates).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidTag`] if authentication fails.
    pub fn open_detached(
        &self,
        nonce: &Nonce12,
        aad: &[u8],
        ct: &[u8],
        tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if !self.verify_detached(nonce, aad, ct, tag) {
            return Err(CryptoError::InvalidTag);
        }
        let mut pt = ct.to_vec();
        self.cipher.ctr32_xor(&j0(nonce), &mut pt);
        Ok(pt)
    }

    /// [`open_detached`](Self::open_detached) of the ciphertext in `buf`,
    /// decrypted in place: the inverse of
    /// [`seal_in_place_detached`](Self::seal_in_place_detached). `buf` is
    /// left as it was when the tag does not authenticate it.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidTag`] if authentication fails.
    pub fn open_in_place_detached(
        &self,
        nonce: &Nonce12,
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        if !self.verify_detached(nonce, aad, buf, tag) {
            return Err(CryptoError::InvalidTag);
        }
        self.cipher.ctr32_xor(&j0(nonce), buf);
        Ok(())
    }

    /// Whether `tag` authenticates `ct` and `aad` under `nonce` — exactly
    /// when [`open_detached`](Self::open_detached) would return `Ok`, but
    /// without decrypting: one GHASH pass and a constant-time compare. For
    /// a holder that needs to know sealed bytes are intact and has no use
    /// for the plaintext.
    pub fn verify_detached(&self, nonce: &Nonce12, aad: &[u8], ct: &[u8], tag: &[u8]) -> bool {
        ct_eq(self.tag(&j0(nonce), aad, ct).as_bytes(), tag)
    }
}

/// Encrypts `plaintext` and authenticates it together with `aad`.
///
/// Returns `ciphertext ‖ tag` (tag is the trailing [`TAG_LEN`] bytes).
///
/// # Example
///
/// ```
/// use precursor_crypto::gcm;
/// use precursor_crypto::keys::{Key128, Nonce12};
/// let key = Key128::from_bytes([0; 16]);
/// let nonce = Nonce12::from_bytes([0; 12]);
/// let sealed = gcm::seal(&key, &nonce, b"", b"hello");
/// assert_eq!(sealed.len(), 5 + gcm::TAG_LEN);
/// ```
pub fn seal(key: &Key128, nonce: &Nonce12, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    GcmKey::new(key).seal(nonce, aad, plaintext)
}

/// [`seal`], appending `ciphertext ‖ tag` to `out` instead of allocating.
pub fn seal_into(out: &mut Vec<u8>, key: &Key128, nonce: &Nonce12, aad: &[u8], plaintext: &[u8]) {
    GcmKey::new(key).seal_into(out, nonce, aad, plaintext);
}

/// Decrypts `sealed` (`ciphertext ‖ tag`) and verifies the tag over the
/// ciphertext and `aad`.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if `sealed` is shorter than a tag
/// and [`CryptoError::InvalidTag`] if authentication fails (wrong key, wrong
/// nonce, tampered ciphertext or tampered AAD).
pub fn open(
    key: &Key128,
    nonce: &Nonce12,
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    GcmKey::new(key).open(nonce, aad, sealed)
}

/// [`open`] for a tag stored apart from its ciphertext.
///
/// # Errors
///
/// [`CryptoError::InvalidTag`] if authentication fails.
pub fn open_detached(
    key: &Key128,
    nonce: &Nonce12,
    aad: &[u8],
    ct: &[u8],
    tag: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    GcmKey::new(key).open_detached(nonce, aad, ct, tag)
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

    fn key(s: &str) -> Key128 {
        Key128::try_from(h2b(s).as_slice()).unwrap()
    }

    fn nonce(s: &str) -> Nonce12 {
        Nonce12::try_from(h2b(s).as_slice()).unwrap()
    }

    /// [`seal`], after checking that the bit-serial oracle produces the
    /// same bytes: the published answers below pin both.
    fn seal_both(k: &Key128, n: &Nonce12, aad: &[u8], pt: &[u8]) -> Vec<u8> {
        let sealed = seal(k, n, aad, pt);
        assert_eq!(
            reference::gcm_seal(k.as_bytes(), n.as_bytes(), aad, pt),
            sealed
        );
        sealed
    }

    #[test]
    fn div_x_undoes_mul_x() {
        let mut v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        for _ in 0..300 {
            assert_eq!(div_x(mul_x(v)), v);
            assert_eq!(mul_x(div_x(v)), v);
            v = v.rotate_left(7) ^ (v >> 3) ^ 0x9e37;
        }
        // 1 / x = 1 + x + x⁶ + x¹²⁷: times x, x¹²⁸ + x⁷ + x² + x = 1.
        let one = 1u128 << 127;
        assert_eq!(div_x(one), 0xC200_0000_0000_0000_0000_0000_0000_0001);
    }

    #[test]
    fn rem8_is_the_reduction_of_the_shifted_out_byte() {
        for r in 0..256u128 {
            let times_x8 = (0..8).fold(r, |v, _| mul_x(v));
            assert_eq!(times_x8, u128::from(REM8[r as usize]) << 112, "r {r:#x}");
        }
    }

    // GCM spec test cases 1–4, then NIST CAVP gcmEncryptExtIV128 with
    // PTlen = 0 (one whole AAD block; 20 AAD bytes):
    // `(key, nonce, aad, plaintext, ciphertext ‖ tag)`.
    const VECTORS: [[&str; 5]; 6] = [
        [
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        ],
        [
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "00000000000000000000000000000000",
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        ],
        [
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985\
             4d5c2af327cd64a62cf35abd2ba6fab4",
        ],
        [
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091\
             5bc94fbc3221a5db94fae95ae7121a47",
        ],
        [
            "77be63708971c4e240d1cb79e8d77feb",
            "e0e00f19fed7ba0136a797f3",
            "7a43ec1d9c0a5a78a0b16533a6213cab",
            "",
            "209fcc8d3675ed938e9c7166709dd946",
        ],
        [
            "2fb45e5b8f993a2bfebc4b15b533e0b4",
            "5b05755f984d2b90f94b8027",
            "e85491b2202caf1d7dce03b97e09331c32473941",
            "",
            "c75b7832b2a2d9bd827412b6ef5769db",
        ],
    ];

    // Vector `i`, sealed by the free function (checked against the oracle)
    // and opened again: `(plaintext, sealed, expected)`.
    fn run_vector(i: usize) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let [k, n, aad, pt, expected] = VECTORS[i];
        let (k, n, aad, pt) = (key(k), nonce(n), h2b(aad), h2b(pt));
        let sealed = seal_both(&k, &n, &aad, &pt);
        assert_eq!(open(&k, &n, &aad, &sealed).unwrap(), pt);
        (pt, sealed, h2b(expected))
    }

    #[test]
    fn nist_test_case_1_empty() {
        // GCM spec test case 1: zero key/IV, empty everything.
        let (_, sealed, expected) = run_vector(0);
        assert_eq!(sealed, expected);
    }

    #[test]
    fn nist_test_case_2_one_block() {
        let (_, sealed, expected) = run_vector(1);
        assert_eq!(sealed, expected);
    }

    #[test]
    fn nist_test_case_3_four_blocks() {
        let (pt, sealed, expected) = run_vector(2);
        assert_eq!(pt.len(), 64);
        assert_eq!(sealed, expected);
    }

    #[test]
    fn nist_test_case_4_aad_and_partial_block() {
        // GCM spec test case 4: 20-byte AAD (padded to two blocks) and a
        // 60-byte plaintext whose last block is 12 bytes.
        let (pt, sealed, expected) = run_vector(3);
        assert_eq!(pt.len(), 60);
        assert_eq!(sealed, expected);
    }

    #[test]
    fn nist_cavp_aad_only() {
        // The tag covers nothing but AAD and the lengths block.
        for i in [4, 5] {
            let (pt, sealed, expected) = run_vector(i);
            assert!(pt.is_empty());
            assert_eq!(sealed, expected);
        }
    }

    #[test]
    fn published_vectors_through_reused_keys() {
        // One context per distinct key, each answering its vectors twice
        // and interleaved with the others': nothing a call leaves behind
        // (counter block, GHASH accumulator) may reach the next.
        let mut keys: Vec<(&str, GcmKey)> = Vec::new();
        for round in 0..2 {
            for [k, n, aad, pt, expected] in VECTORS {
                if !keys.iter().any(|(seen, _)| *seen == k) {
                    keys.push((k, GcmKey::new(&key(k))));
                }
                let keyed = &keys.iter().find(|(seen, _)| *seen == k).unwrap().1;
                let (n, aad, pt, expected) = (nonce(n), h2b(aad), h2b(pt), h2b(expected));
                assert_eq!(keyed.seal(&n, &aad, &pt), expected, "round {round}");
                assert_eq!(keyed.open(&n, &aad, &expected).unwrap(), pt);
                let (ct, tag) = expected.split_at(pt.len());
                assert!(keyed.verify_detached(&n, &aad, ct, tag));
                assert_eq!(keyed.open_detached(&n, &aad, ct, tag).unwrap(), pt);
            }
        }
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn verify_detached_is_true_exactly_when_open_detached_is_ok() {
        let k = Key128::from_bytes([0x3c; 16]);
        let keyed = GcmKey::new(&k);
        let n = Nonce12::from_counter(5);
        for pt in [&b"thirty-seven bytes of sealed plaintext"[..37], b""] {
            let sealed = keyed.seal(&n, b"aad", pt);
            let (ct, tag) = sealed.split_at(pt.len());
            let agree = |key: &GcmKey, n: &Nonce12, aad: &[u8], ct: &[u8], tag: &[u8]| {
                let verified = key.verify_detached(n, aad, ct, tag);
                assert_eq!(verified, key.open_detached(n, aad, ct, tag).is_ok());
                verified
            };
            assert!(agree(&keyed, &n, b"aad", ct, tag));
            for bit in 0..ct.len() * 8 {
                let mut ct = ct.to_vec();
                ct[bit / 8] ^= 1 << (bit % 8);
                assert!(!agree(&keyed, &n, b"aad", &ct, tag), "ciphertext bit {bit}");
            }
            for bit in 0..TAG_LEN * 8 {
                let mut tag = tag.to_vec();
                tag[bit / 8] ^= 1 << (bit % 8);
                assert!(!agree(&keyed, &n, b"aad", ct, &tag), "tag bit {bit}");
            }
            assert!(!agree(&keyed, &n, b"aae", ct, tag), "wrong AAD");
            assert!(!agree(&keyed, &n, b"", ct, tag), "no AAD");
            assert!(!agree(&keyed, &Nonce12::from_counter(6), b"aad", ct, tag));
            let other = GcmKey::new(&Key128::from_bytes([0x3d; 16]));
            assert!(!agree(&other, &n, b"aad", ct, tag), "wrong key");
            assert!(!agree(&keyed, &n, b"aad", ct, &tag[..15]), "15-byte tag");
            assert!(!agree(&keyed, &n, b"aad", ct, &[]), "no tag");
        }
    }

    #[test]
    fn a_key_is_no_larger_than_a_schedule_and_shoup_tables() {
        // The parent's inline layout: 176 B of round keys and 512 B of
        // tables. Either kernel's key now fits well inside it.
        assert!(std::mem::size_of::<GcmKey>() <= 176 + 512);
    }

    #[test]
    fn debug_prints_no_key_byte() {
        let k = Key128::from_bytes([0xa7; 16]);
        let keyed = GcmKey::new(&k);
        let shown = format!("{keyed:?} {:#?}", keyed.clone());
        assert_eq!(shown, "GcmKey(<redacted>) GcmKey(<redacted>)");
    }

    #[test]
    fn seal_into_appends_what_seal_returns() {
        let k = Key128::from_bytes([4; 16]);
        let n = Nonce12::from_counter(9);
        let mut framed = b"header".to_vec();
        seal_into(&mut framed, &k, &n, b"aad", b"seventeen bytes!!");
        assert_eq!(&framed[..6], b"header");
        assert_eq!(
            &framed[6..],
            &seal(&k, &n, b"aad", b"seventeen bytes!!")[..]
        );
    }

    #[test]
    fn roundtrip_with_aad_various_lengths() {
        let k = Key128::from_bytes([9; 16]);
        for len in [0usize, 1, 15, 16, 17, 32, 100, 1000] {
            let n = Nonce12::from_counter(len as u64);
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let aad = b"control header";
            let sealed = seal(&k, &n, aad, &pt);
            assert_eq!(open(&k, &n, aad, &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let mut sealed = seal(&k, &n, b"a", b"payload");
        sealed[0] ^= 1;
        assert_eq!(open(&k, &n, b"a", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let mut sealed = seal(&k, &n, b"", b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(open(&k, &n, b"", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn detached_tag_opens_like_the_trailing_one() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let sealed = seal(&k, &n, b"a", b"payload");
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(open_detached(&k, &n, b"a", ct, tag).unwrap(), b"payload");
        // a tag of the wrong length or value never verifies
        assert_eq!(
            open_detached(&k, &n, b"a", ct, &tag[..15]),
            Err(CryptoError::InvalidTag)
        );
        assert_eq!(
            open_detached(&k, &n, b"a", ct, &[0u8; TAG_LEN]),
            Err(CryptoError::InvalidTag)
        );
    }

    #[test]
    fn in_place_seal_and_open_match_the_copying_ones() {
        let keyed = GcmKey::new(&Key128::from_bytes([9; 16]));
        let n = Nonce12::from_counter(3);
        for pt in [
            &b"a message longer than four GHASH blocks, sealed in place"[..],
            b"",
        ] {
            let sealed = keyed.seal(&n, b"aad", pt);
            let mut buf = pt.to_vec();
            let tag = keyed.seal_in_place_detached(&n, b"aad", &mut buf);
            assert_eq!([&buf[..], tag.as_bytes()].concat(), sealed);
            let ct = buf.clone();
            assert_eq!(
                keyed.open_in_place_detached(&n, b"aae", &mut buf, tag.as_bytes()),
                Err(CryptoError::InvalidTag)
            );
            assert_eq!(buf, ct, "a rejected open leaves the ciphertext");
            keyed
                .open_in_place_detached(&n, b"aad", &mut buf, tag.as_bytes())
                .expect("authentic");
            assert_eq!(buf, pt);
        }
    }

    #[test]
    fn wrong_aad_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let sealed = seal(&k, &n, b"aad-1", b"payload");
        assert_eq!(
            open(&k, &n, b"aad-2", &sealed),
            Err(CryptoError::InvalidTag)
        );
    }

    #[test]
    fn wrong_key_or_nonce_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let sealed = seal(&k, &n, b"", b"payload");
        assert!(open(&Key128::from_bytes([2; 16]), &n, b"", &sealed).is_err());
        assert!(open(&k, &Nonce12::from_counter(2), b"", &sealed).is_err());
    }

    #[test]
    fn short_input_is_invalid_length() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        assert_eq!(
            open(&k, &n, b"", &[0u8; 15]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let k = Key128::from_bytes([3; 16]);
        let a = seal(&k, &Nonce12::from_counter(1), b"", b"same plaintext");
        let b = seal(&k, &Nonce12::from_counter(2), b"", b"same plaintext");
        assert_ne!(a, b);
    }
}
