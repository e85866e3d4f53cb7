//! AES-128 block cipher (FIPS 197), encryption only.
//!
//! Two kernels, one key schedule. [`Aes128::new`] takes the AES-NI kernel
//! (`crate::x86`) when the CPU has it and the portable one otherwise; the
//! choice is made once per key and every output byte is the same either
//! way. Both hold the 11 round keys as 44 little-endian column words, which
//! is the byte order AES-NI loads, so the two expansions can be compared
//! word for word.
//!
//! The portable kernel derives the S-box *algebraically* at compile time —
//! multiplicative inverse in GF(2⁸) followed by the affine transform — rather
//! than transcribing it, which removes an entire class of table-typo bugs;
//! the FIPS 197 appendix vectors in the tests pin the result. Its round is
//! the word-oriented T-table round of the Rijndael proposal (§5.2.1):
//! SubBytes, ShiftRows and MixColumns of one state byte collapse into one
//! lookup in a 256-entry `u32` table, and the other three rows use the same
//! table rotated. A round is 16 lookups and 16 XORs on four column words.
//!
//! Every GCM counter block and every CMAC block is one encryption, so the
//! modes' inner loops live here too: `Aes128::ctr32_xor` (GCM's CTR, four
//! blocks per AES-NI pass) and `Aes128::cbc_mac` (CMAC's serial chain).
//! The *simulated* cost of AES comes from the cost model, not from this
//! code's wall-clock speed. No mode in this crate decrypts a block, so there
//! is no decryption.
//!
//! The portable kernel's table lookups are indexed by key-dependent bytes
//! and are **not constant-time**; see the crate-level security note.

use crate::keys::Key128;
#[cfg(target_arch = "x86_64")]
use crate::x86::AesNi;

const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

const fn gf_mul(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut aa = a;
    let mut bb = b;
    let mut i = 0;
    while i < 8 {
        if bb & 1 == 1 {
            p ^= aa;
        }
        aa = xtime(aa);
        bb >>= 1;
        i += 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8)
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn affine(b: u8) -> u8 {
    b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        t[i] = affine(gf_inv(i as u8));
        i += 1;
    }
    t
}

/// The AES S-box, derived at compile time.
pub const SBOX: [u8; 256] = build_sbox();

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_le_bytes([xtime(s), s, s, xtime(s) ^ s]);
        i += 1;
    }
    t
}

/// `TE0[a]` is MixColumns applied to the column `(S[a], 0, 0, 0)`, packed
/// little-endian: `(2·S[a], S[a], S[a], 3·S[a])`. A byte in row `r`
/// contributes the same column rotated down by `r` bytes, i.e.
/// `TE0[a].rotate_left(8r)`.
static TE0: [u32; 256] = build_te0();

fn sub_word(w: u32) -> u32 {
    u32::from_le_bytes(w.to_le_bytes().map(|b| SBOX[b as usize]))
}

/// Row `r` of column word `w` (row 0 in the least significant byte).
fn row(w: u32, r: u32) -> usize {
    ((w >> (8 * r)) & 0xff) as usize
}

/// The portable key expansion (FIPS 197 §5.2).
pub(crate) fn expand_key(key: &[u8; 16]) -> [u32; 44] {
    let mut w = [0u32; 44];
    for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            // RotWord moves byte 1 to byte 0: a right rotation of a
            // little-endian word.
            temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / 4 - 1]);
        }
        w[i] = w[i - 4] ^ temp;
    }
    w
}

/// The portable block encryption: nine T-table rounds and a last round of
/// plain S-box bytes.
pub(crate) fn encrypt_block(rk: &[u32; 44], block: [u8; 16]) -> [u8; 16] {
    // s[c] is state column c, row 0 in the least significant byte.
    let mut s = [0u32; 4];
    for c in 0..4 {
        let col = [
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ];
        s[c] = u32::from_le_bytes(col) ^ rk[c];
    }
    for round in 1..10 {
        // ShiftRows: output column c takes row r from input column c + r.
        let mut t = [0u32; 4];
        for c in 0..4 {
            t[c] = TE0[row(s[c], 0)]
                ^ TE0[row(s[(c + 1) % 4], 1)].rotate_left(8)
                ^ TE0[row(s[(c + 2) % 4], 2)].rotate_left(16)
                ^ TE0[row(s[(c + 3) % 4], 3)].rotate_left(24)
                ^ rk[4 * round + c];
        }
        s = t;
    }
    let mut out = [0u8; 16];
    for c in 0..4 {
        let col = u32::from_le_bytes([
            SBOX[row(s[c], 0)],
            SBOX[row(s[(c + 1) % 4], 1)],
            SBOX[row(s[(c + 2) % 4], 2)],
            SBOX[row(s[(c + 3) % 4], 3)],
        ]) ^ rk[40 + c];
        out[4 * c..4 * c + 4].copy_from_slice(&col.to_le_bytes());
    }
    out
}

fn xor_block(a: [u8; 16], b: &[u8]) -> [u8; 16] {
    let mut out = a;
    for (x, y) in out.iter_mut().zip(b) {
        *x ^= y;
    }
    out
}

/// An expanded AES-128 key ready to encrypt 16-byte blocks.
///
/// # Example
///
/// ```
/// use precursor_crypto::aes::Aes128;
/// use precursor_crypto::keys::Key128;
///
/// let cipher = Aes128::new(&Key128::from_bytes([0u8; 16]));
/// let ct = cipher.encrypt_block([0u8; 16]);
/// assert_eq!(ct[..4], [0x66, 0xe9, 0x4b, 0xd4]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// The key schedule `w[0..44]`; round `r` uses words `4r..4r + 4`, each
    /// a little-endian state column.
    round_keys: [u32; 44],
    /// `E(0)`, the zero block encrypted: GCM's hash key and the seed of
    /// CMAC's subkeys, made while the schedule is.
    zero: [u8; 16],
    /// Present when the schedule was expanded for, and runs on, AES-NI.
    #[cfg(target_arch = "x86_64")]
    aesni: Option<AesNi>,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128 { round_keys: <redacted> }")
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys (FIPS 197 §5.2), with AES-NI
    /// when the CPU has it.
    pub fn new(key: &Key128) -> Aes128 {
        #[cfg(target_arch = "x86_64")]
        if let Some(aesni) = AesNi::detect() {
            let (round_keys, zero) = aesni.expand(key.as_bytes());
            return Aes128 {
                round_keys,
                zero,
                aesni: Some(aesni),
            };
        }
        Aes128::portable(key)
    }

    /// The portable kernel, whatever the CPU: the only path off x86-64, and
    /// what the hardware kernel is tested against.
    pub(crate) fn portable(key: &Key128) -> Aes128 {
        let round_keys = expand_key(key.as_bytes());
        Aes128 {
            round_keys,
            zero: encrypt_block(&round_keys, [0; 16]),
            #[cfg(target_arch = "x86_64")]
            aesni: None,
        }
    }

    /// `E(0)`: the encryption of the zero block, kept from key expansion.
    pub(crate) fn zero_block(&self) -> [u8; 16] {
        self.zero
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if let Some(aesni) = self.aesni {
            return aesni.encrypt_block(&self.round_keys, block);
        }
        encrypt_block(&self.round_keys, block)
    }

    /// CBC-MAC with a zero IV over `blocks` (whole 16-byte blocks) followed
    /// by `last`: CMAC's chain, one block at a time because each block
    /// needs the previous one's output.
    pub(crate) fn cbc_mac(&self, blocks: &[u8], last: [u8; 16]) -> [u8; 16] {
        debug_assert_eq!(blocks.len() % 16, 0);
        #[cfg(target_arch = "x86_64")]
        if let Some(aesni) = self.aesni {
            return aesni.cbc_mac(&self.round_keys, blocks, last);
        }
        let mut x = [0u8; 16];
        for block in blocks.chunks_exact(16) {
            x = encrypt_block(&self.round_keys, xor_block(x, block));
        }
        encrypt_block(&self.round_keys, xor_block(x, &last))
    }

    /// XORs the CTR keystream of counter block `j0` into `data`: block `i`
    /// (from 1) is `E(j0 + i)`, where `+` is `inc32` — it wraps the last
    /// four bytes, big-endian, and leaves the first twelve alone (SP 800-38D
    /// §6.2).
    pub(crate) fn ctr32_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(aesni) = self.aesni {
            return aesni.ctr32_xor(&self.round_keys, j0, data);
        }
        let mut counter = *j0;
        let mut ctr = u32::from_be_bytes([j0[12], j0[13], j0[14], j0[15]]);
        for chunk in data.chunks_mut(16) {
            ctr = ctr.wrapping_add(1);
            counter[12..].copy_from_slice(&ctr.to_be_bytes());
            let ks = encrypt_block(&self.round_keys, counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn sbox_known_entries() {
        // Spot values from the FIPS 197 table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn sbox_is_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS 197 Appendix B worked example.
        let key = Key128::from_bytes(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let expected = hex16("3925841d02dc09fbdc118597196a0b32");
        let c = Aes128::new(&key);
        assert_eq!(c.encrypt_block(pt), expected);
        assert_eq!(reference::encrypt_block(key.as_bytes(), pt), expected);
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS 197 Appendix C.1 (AES-128).
        let key = Key128::from_bytes(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let expected = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
        let c = Aes128::new(&key);
        assert_eq!(c.encrypt_block(pt), expected);
        assert_eq!(reference::encrypt_block(key.as_bytes(), pt), expected);
    }

    #[test]
    fn te0_is_mix_columns_of_the_sbox() {
        for a in 0..256usize {
            let s = SBOX[a];
            let [two, one, one_again, three] = TE0[a].to_le_bytes();
            assert_eq!((one, one_again), (s, s));
            assert_eq!(two, gf_mul(s, 2));
            assert_eq!(three, gf_mul(s, 3));
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&Key128::from_bytes([0; 16]));
        let b = Aes128::new(&Key128::from_bytes([1; 16]));
        assert_ne!(a.encrypt_block([0; 16]), b.encrypt_block([0; 16]));
    }

    #[test]
    fn debug_redacts_keys() {
        let c = Aes128::new(&Key128::from_bytes([9; 16]));
        assert!(!format!("{c:?}").contains('9'));
    }
}
