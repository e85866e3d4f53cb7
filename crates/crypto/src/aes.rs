//! AES-128 block cipher (FIPS 197).
//!
//! The S-box and its inverse are derived *algebraically* at compile time —
//! multiplicative inverse in GF(2⁸) followed by the affine transform — rather
//! than transcribed, which removes an entire class of table-typo bugs; the
//! FIPS 197 appendix vectors in the tests pin the result.
//!
//! Encryption is the word-oriented T-table round of the Rijndael proposal
//! (§5.2.1): SubBytes, ShiftRows and MixColumns of one state byte collapse
//! into one lookup in a 256-entry `u32` table, itself derived at compile
//! time from the algebraic S-box, and the other three rows use the same
//! table rotated. A round is 16 lookups and 16 XORs on four column words;
//! round keys are held as 44 words. Every GCM counter block and every CMAC
//! block is one such encryption, which makes it most of the store's
//! host-time cost (the *simulated* cost of AES comes from the cost model,
//! not from this code's wall-clock speed). Decryption, which no mode in
//! this crate uses, stays byte-oriented.
//!
//! Table lookups indexed by key-dependent bytes are **not constant-time**;
//! see the crate-level security note.

use crate::keys::Key128;

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

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        t[sbox[i] as usize] = i as u8;
        i += 1;
    }
    t
}

/// The AES S-box, derived at compile time.
pub const SBOX: [u8; 256] = build_sbox();
/// The inverse AES S-box.
pub const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        i += 1;
    }
    t
}

/// `TE0[a]` is MixColumns applied to the column `(S[a], 0, 0, 0)`, packed
/// big-endian: `(2·S[a], S[a], S[a], 3·S[a])`. A byte in row `r` contributes
/// the same column rotated down by `r` bytes, i.e. `TE0[a].rotate_right(8r)`.
static TE0: [u32; 256] = build_te0();

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// An expanded AES-128 key ready to encrypt or decrypt 16-byte blocks.
///
/// # Example
///
/// ```
/// use precursor_crypto::aes::Aes128;
/// use precursor_crypto::keys::Key128;
///
/// let cipher = Aes128::new(&Key128::from_bytes([0u8; 16]));
/// let block = [0u8; 16];
/// let ct = cipher.encrypt_block(block);
/// assert_eq!(cipher.decrypt_block(ct), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// The key schedule `w[0..44]`; round `r` uses words `4r..4r + 4`, each
    /// a big-endian state column.
    round_keys: [u32; 44],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128 { round_keys: <redacted> }")
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys (FIPS 197 §5.2).
    pub fn new(key: &Key128) -> Aes128 {
        let mut w = [0u32; 44];
        for (word, bytes) in w.iter_mut().zip(key.as_bytes().chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        // s[c] is state column c, row 0 in the most significant byte.
        let mut s = [0u32; 4];
        for c in 0..4 {
            let col = [
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ];
            s[c] = u32::from_be_bytes(col) ^ rk[c];
        }
        for round in 1..10 {
            // ShiftRows: output column c takes row r from input column c + r.
            let mut t = [0u32; 4];
            for c in 0..4 {
                t[c] = TE0[(s[c] >> 24) as usize]
                    ^ TE0[((s[(c + 1) % 4] >> 16) & 0xff) as usize].rotate_right(8)
                    ^ TE0[((s[(c + 2) % 4] >> 8) & 0xff) as usize].rotate_right(16)
                    ^ TE0[(s[(c + 3) % 4] & 0xff) as usize].rotate_right(24)
                    ^ rk[4 * round + c];
            }
            s = t;
        }
        // The last round has no MixColumns: plain S-box bytes.
        let mut out = [0u8; 16];
        for c in 0..4 {
            let col = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[((s[(c + 1) % 4] >> 16) & 0xff) as usize],
                SBOX[((s[(c + 2) % 4] >> 8) & 0xff) as usize],
                SBOX[(s[(c + 3) % 4] & 0xff) as usize],
            ]) ^ rk[40 + c];
            out[4 * c..4 * c + 4].copy_from_slice(&col.to_be_bytes());
        }
        out
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut s = block;
        self.add_round_key(&mut s, 10);
        for round in (1..10).rev() {
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            self.add_round_key(&mut s, round);
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        self.add_round_key(&mut s, 0);
        s
    }

    fn add_round_key(&self, s: &mut [u8; 16], round: usize) {
        let words = &self.round_keys[4 * round..4 * round + 4];
        for (col, word) in s.chunks_exact_mut(4).zip(words) {
            for (b, k) in col.iter_mut().zip(word.to_be_bytes()) {
                *b ^= k;
            }
        }
    }
}

fn inv_sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: s[r + 4c] is row r, column c (FIPS 197 §3.4).
fn inv_shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[r + 4 * ((c + r) % 4)] = orig[r + 4 * c];
        }
    }
}

fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gf_mul(col[0], 0x0e)
            ^ gf_mul(col[1], 0x0b)
            ^ gf_mul(col[2], 0x0d)
            ^ gf_mul(col[3], 0x09);
        s[4 * c + 1] = gf_mul(col[0], 0x09)
            ^ gf_mul(col[1], 0x0e)
            ^ gf_mul(col[2], 0x0b)
            ^ gf_mul(col[3], 0x0d);
        s[4 * c + 2] = gf_mul(col[0], 0x0d)
            ^ gf_mul(col[1], 0x09)
            ^ gf_mul(col[2], 0x0e)
            ^ gf_mul(col[3], 0x0b);
        s[4 * c + 3] = gf_mul(col[0], 0x0b)
            ^ gf_mul(col[1], 0x0d)
            ^ gf_mul(col[2], 0x09)
            ^ gf_mul(col[3], 0x0e);
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
    fn inv_sbox_inverts() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
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
        assert_eq!(c.decrypt_block(expected), pt);
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
        assert_eq!(c.decrypt_block(expected), pt);
        assert_eq!(reference::encrypt_block(key.as_bytes(), pt), expected);
    }

    #[test]
    fn te0_is_mix_columns_of_the_sbox() {
        for a in 0..256usize {
            let s = SBOX[a];
            let [two, one, one_again, three] = TE0[a].to_be_bytes();
            assert_eq!((one, one_again), (s, s));
            assert_eq!(two, gf_mul(s, 2));
            assert_eq!(three, gf_mul(s, 3));
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_random() {
        let c = Aes128::new(&Key128::from_bytes([0xA5; 16]));
        let mut block = [0u8; 16];
        for round in 0..100u32 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = (round as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
            assert_eq!(c.decrypt_block(c.encrypt_block(block)), block);
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
