//! Test-only oracle: the byte-oriented AES-128 round and the bit-serial
//! GF(2¹²⁸) multiplication the crate shipped before its kernels became
//! table-driven, plus GHASH, GCM and CMAC composed from them straight out
//! of the specifications.
//!
//! Compiled under `#[cfg(test)]` only: the unit tests check these against
//! the published vectors and, in `kernel_pairs.rs`, check both the portable
//! and the x86-64 kernels against these; `tests/proptests.rs` includes this
//! file by path to check the public API on seeded random input. Byte arrays
//! in and out, so it depends on nothing but the S-box.

use super::aes::SBOX;

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn gf_mul(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut aa = a;
    let mut bb = b;
    for _ in 0..8 {
        if bb & 1 == 1 {
            p ^= aa;
        }
        aa = (aa << 1) ^ (((aa >> 7) & 1) * 0x1b);
        bb >>= 1;
    }
    p
}

fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for (i, word) in w.iter_mut().take(4).enumerate() {
        word.copy_from_slice(&key[i * 4..i * 4 + 4]);
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for b in &mut temp {
                *b = SBOX[*b as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State layout: s[r + 4c] is row r, column c (FIPS 197 §3.4).
fn shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[r + 4 * c] = orig[r + 4 * ((c + r) % 4)];
        }
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        s[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

/// AES-128 encryption of one block, FIPS 197 §5.1 step by step.
pub fn encrypt_block(key: &[u8; 16], block: [u8; 16]) -> [u8; 16] {
    let round_keys = expand_key(key);
    let mut s = block;
    add_round_key(&mut s, &round_keys[0]);
    for rk in &round_keys[1..10] {
        sub_bytes(&mut s);
        shift_rows(&mut s);
        mix_columns(&mut s);
        add_round_key(&mut s, rk);
    }
    sub_bytes(&mut s);
    shift_rows(&mut s);
    add_round_key(&mut s, &round_keys[10]);
    s
}

/// `x · y` in GF(2¹²⁸), one bit of `x` per step (SP 800-38D algorithm 1).
pub fn gf_mult(x: u128, y: u128) -> u128 {
    // Bit 0 is the most significant bit per the GCM spec.
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= 0xE1u128 << 120;
        }
    }
    z
}

fn block_to_u128(b: &[u8]) -> u128 {
    let mut arr = [0u8; 16];
    arr[..b.len()].copy_from_slice(b);
    u128::from_be_bytes(arr)
}

/// GHASH of zero-padded `aad`, zero-padded `ct` and their bit lengths.
pub fn ghash(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(16).chain(ct.chunks(16)) {
        y = gf_mult(y ^ block_to_u128(chunk), h);
    }
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    gf_mult(y ^ lens, h)
}

/// AES-128-GCM with a 96-bit nonce: `ciphertext ‖ tag`.
pub fn gcm_seal(key: &[u8; 16], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let h = u128::from_be_bytes(encrypt_block(key, [0u8; 16]));
    let mut counter = [0u8; 16];
    counter[..12].copy_from_slice(nonce);
    counter[15] = 1;
    let ekj0 = u128::from_be_bytes(encrypt_block(key, counter));
    let mut out = plaintext.to_vec();
    for (i, chunk) in out.chunks_mut(16).enumerate() {
        counter[12..].copy_from_slice(&(i as u32 + 2).to_be_bytes());
        let ks = encrypt_block(key, counter);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
    let tag = ghash(h, aad, &out) ^ ekj0;
    out.extend_from_slice(&tag.to_be_bytes());
    out
}

fn dbl(block: [u8; 16]) -> [u8; 16] {
    let v = u128::from_be_bytes(block);
    ((v << 1) ^ ((v >> 127) * 0x87)).to_be_bytes()
}

/// AES-128-CMAC (RFC 4493 §2.4).
pub fn cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    let k1 = dbl(encrypt_block(key, [0u8; 16]));
    let k2 = dbl(k1);
    let n_blocks = msg.len().div_ceil(16).max(1);
    let (head, rest) = msg.split_at((n_blocks - 1) * 16);
    let complete = rest.len() == 16;
    let mut x = [0u8; 16];
    for block in head.chunks(16) {
        for (a, b) in x.iter_mut().zip(block) {
            *a ^= b;
        }
        x = encrypt_block(key, x);
    }
    let mut last = [0u8; 16];
    last[..rest.len()].copy_from_slice(rest);
    if !complete {
        last[rest.len()] = 0x80;
    }
    let subkey = if complete { k1 } else { k2 };
    for i in 0..16 {
        x[i] ^= last[i] ^ subkey[i];
    }
    encrypt_block(key, x)
}
