//! Salsa20 stream cipher (D. J. Bernstein's specification).
//!
//! This is the paper's client-side payload cipher: Libsodium's secretbox
//! construction encrypts with (X)Salsa20 under the 256-bit one-time
//! `K_operation` (§4). Encryption and decryption are the same keystream XOR.
//!
//! Three kernels share one double-round schedule, one block per register
//! lane in the wide ones, like libsodium's vectorised Salsa20. On x86-64
//! (`crate::x86`) the AVX-512F kernel, where the CPU has it, runs sixteen
//! blocks at once over every whole 1 KiB group of a message; the SSE2
//! kernel runs four at once over every whole 256-byte group of what is
//! left; the portable kernel runs one block at a time on `u32`s for the
//! rest, and for the whole message elsewhere. [`xor_keystream`] makes that
//! split on each call; the bytes are those of the one-block kernel either
//! way.

use crate::keys::{Key256, Nonce8};
#[cfg(target_arch = "x86_64")]
use crate::x86::{Avx512, Sse2};

const SIGMA: [u32; 4] = [
    u32::from_le_bytes(*b"expa"),
    u32::from_le_bytes(*b"nd 3"),
    u32::from_le_bytes(*b"2-by"),
    u32::from_le_bytes(*b"te k"),
];

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[b] ^= state[a].wrapping_add(state[d]).rotate_left(7);
    state[c] ^= state[b].wrapping_add(state[a]).rotate_left(9);
    state[d] ^= state[c].wrapping_add(state[b]).rotate_left(13);
    state[a] ^= state[d].wrapping_add(state[c]).rotate_left(18);
}

/// One double round of `quarter_round` over the 16-word state `s`: the
/// column round, then the row round. Every kernel expands it, each with its
/// own quarter round, so the index schedule is written once.
macro_rules! double_round {
    ($quarter_round:ident, $s:expr) => {
        // column round
        $quarter_round($s, 0, 4, 8, 12);
        $quarter_round($s, 5, 9, 13, 1);
        $quarter_round($s, 10, 14, 2, 6);
        $quarter_round($s, 15, 3, 7, 11);
        // row round
        $quarter_round($s, 0, 1, 2, 3);
        $quarter_round($s, 5, 6, 7, 4);
        $quarter_round($s, 10, 11, 8, 9);
        $quarter_round($s, 15, 12, 13, 14);
    };
}
pub(crate) use double_round;

/// The input words of block `counter`: constants, key, nonce and the
/// counter as words 8 (low) and 9 (high).
pub(crate) fn initial_state(key: &Key256, nonce: &Nonce8, counter: u64) -> [u32; 16] {
    let kb = key.as_bytes();
    let nb = nonce.as_bytes();
    let word = |bytes: &[u8], i: usize| {
        u32::from_le_bytes([
            bytes[4 * i],
            bytes[4 * i + 1],
            bytes[4 * i + 2],
            bytes[4 * i + 3],
        ])
    };
    let mut s = [0u32; 16];
    s[0] = SIGMA[0];
    for i in 0..4 {
        s[1 + i] = word(kb, i);
    }
    s[5] = SIGMA[1];
    s[6] = word(nb, 0);
    s[7] = word(nb, 1);
    s[8] = counter as u32;
    s[9] = (counter >> 32) as u32;
    s[10] = SIGMA[2];
    for i in 0..4 {
        s[11 + i] = word(kb, 4 + i);
    }
    s[15] = SIGMA[3];
    s
}

fn keystream_block(key: &Key256, nonce: &Nonce8, counter: u64) -> [u8; 64] {
    let input = initial_state(key, nonce, counter);
    let mut s = input;
    for _ in 0..10 {
        double_round!(quarter_round, &mut s);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let v = s[i].wrapping_add(input[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// The portable kernel: one block per pass.
pub(crate) fn xor_keystream_portable(
    key: &Key256,
    nonce: &Nonce8,
    counter_start: u64,
    data: &mut [u8],
) {
    let mut counter = counter_start;
    for chunk in data.chunks_mut(64) {
        let ks = keystream_block(key, nonce, counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// XORs the Salsa20 keystream into `data` in place, starting at block
/// `counter_start`. Applying it twice with the same parameters restores the
/// original data.
///
/// # Example
///
/// ```
/// use precursor_crypto::salsa20::xor_keystream;
/// use precursor_crypto::keys::{Key256, Nonce8};
/// let key = Key256::from_bytes([1; 32]);
/// let nonce = Nonce8::from_bytes([2; 8]);
/// let mut data = *b"attack at dawn";
/// xor_keystream(&key, &nonce, 0, &mut data);
/// assert_ne!(&data, b"attack at dawn");
/// xor_keystream(&key, &nonce, 0, &mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
pub fn xor_keystream(key: &Key256, nonce: &Nonce8, counter_start: u64, data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    let (counter_start, data) = {
        let wide = Avx512::detect().map_or(0, |k| k.salsa20_xor(key, nonce, counter_start, data));
        let counter = counter_start.wrapping_add(wide as u64 / 64);
        let done = wide + Sse2::detect().salsa20_xor(key, nonce, counter, &mut data[wide..]);
        (
            counter_start.wrapping_add(done as u64 / 64),
            &mut data[done..],
        )
    };
    xor_keystream_portable(key, nonce, counter_start, data);
}

/// Encrypts `plaintext` (allocating) — a convenience over [`xor_keystream`].
pub fn encrypt(key: &Key256, nonce: &Nonce8, plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    xor_keystream(key, nonce, 0, &mut out);
    out
}

/// Decrypts `ciphertext` (allocating). Identical to [`encrypt`].
pub fn decrypt(key: &Key256, nonce: &Nonce8, ciphertext: &[u8]) -> Vec<u8> {
    encrypt(key, nonce, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_quarter_round_vector() {
        // From the Salsa20 specification: quarterround(1,0,0,0).
        let mut s = [0u32; 16];
        s[0] = 1;
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], 0x08008145);
        assert_eq!(s[1], 0x00000080);
        assert_eq!(s[2], 0x00010200);
        assert_eq!(s[3], 0x20500000);
    }

    #[test]
    fn spec_quarter_round_zero_fixed_point() {
        let mut s = [0u32; 16];
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(&s[..4], &[0, 0, 0, 0]);
    }

    #[test]
    fn spec_expansion_example() {
        // The worked example of the Salsa20 specification's §10 (the
        // 32-byte-key expansion): key bytes 1..=16 and 201..=216, nonce
        // bytes 101..=108, block counter bytes 109..=116.
        let key = Key256::from_bytes(std::array::from_fn(|i| {
            if i < 16 {
                1 + i as u8
            } else {
                185 + i as u8
            }
        }));
        let nonce = Nonce8::from_bytes(std::array::from_fn(|i| 101 + i as u8));
        let counter = u64::from_le_bytes(std::array::from_fn(|i| 109 + i as u8));
        let expected: [u8; 64] = [
            69, 37, 68, 39, 41, 15, 107, 193, 255, 139, 122, 6, 170, 233, 217, 98, 89, 144, 182,
            106, 21, 51, 200, 65, 239, 49, 222, 34, 215, 114, 40, 126, 104, 197, 7, 225, 197, 153,
            31, 2, 102, 78, 76, 176, 84, 245, 246, 184, 177, 160, 133, 130, 6, 72, 149, 119, 192,
            195, 132, 236, 234, 103, 246, 74,
        ];
        // Sixteen blocks, so that on x86-64 the public function runs the
        // whole buffer through the sixteen-block kernel where the CPU has
        // AVX-512F and through the four-block kernel elsewhere.
        let mut portable = [0u8; 1024];
        xor_keystream_portable(&key, &nonce, counter, &mut portable);
        assert_eq!(portable[..64], expected);
        let mut public = [0u8; 1024];
        xor_keystream(&key, &nonce, counter, &mut public);
        assert_eq!(public, portable);
    }

    #[test]
    fn keystream_blocks_differ_by_counter() {
        let k = Key256::from_bytes([3; 32]);
        let n = Nonce8::from_bytes([4; 8]);
        assert_ne!(keystream_block(&k, &n, 0), keystream_block(&k, &n, 1));
    }

    #[test]
    fn keystream_differs_by_nonce_and_key() {
        let k = Key256::from_bytes([3; 32]);
        let n1 = Nonce8::from_bytes([4; 8]);
        let n2 = Nonce8::from_bytes([5; 8]);
        assert_ne!(keystream_block(&k, &n1, 0), keystream_block(&k, &n2, 0));
        let k2 = Key256::from_bytes([9; 32]);
        assert_ne!(keystream_block(&k, &n1, 0), keystream_block(&k2, &n1, 0));
    }

    #[test]
    fn roundtrip_all_lengths_around_block_boundary() {
        let k = Key256::from_bytes([7; 32]);
        let n = Nonce8::from_bytes([8; 8]);
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let ct = encrypt(&k, &n, &pt);
            assert_eq!(decrypt(&k, &n, &ct), pt, "len {len}");
            if len > 0 {
                assert_ne!(ct, pt, "len {len}");
            }
        }
    }

    #[test]
    fn seek_with_counter_matches_contiguous_stream() {
        // Encrypting [0,128) in one call must equal encrypting the second
        // block separately with counter_start = 1.
        let k = Key256::from_bytes([1; 32]);
        let n = Nonce8::from_bytes([2; 8]);
        let mut whole = vec![0u8; 128];
        xor_keystream(&k, &n, 0, &mut whole);
        let mut second = vec![0u8; 64];
        xor_keystream(&k, &n, 1, &mut second);
        assert_eq!(&whole[64..], &second[..]);
    }

    #[test]
    fn deterministic() {
        let k = Key256::from_bytes([1; 32]);
        let n = Nonce8::from_bytes([2; 8]);
        assert_eq!(encrypt(&k, &n, b"abc"), encrypt(&k, &n, b"abc"));
    }
}
