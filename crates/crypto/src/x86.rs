//! The x86-64 kernels: AES-NI, carry-less GHASH, SHA-256 on the SHA
//! extensions and Salsa20 four blocks per SSE2 pass or sixteen per AVX-512F
//! pass — the instructions the paper's SGX SDK and libsodium run on its
//! Xeon.
//!
//! Each kernel is a `#[target_feature]` function reached only through a
//! method of a zero-sized token ([`AesNi`], [`Clmul`], [`ShaNi`],
//! [`Sse2`], [`Avx512`]). A token's field is private to this module and its
//! one constructor is the `is_x86_feature_detected!` probe for every
//! feature the kernels behind it enable; SSE2 is in the x86-64 baseline, so
//! [`Sse2`] needs no probe. Holding a token therefore proves the CPU runs
//! its kernels, which is what makes the calls below sound for any safe
//! caller. Inside a kernel the intrinsics are safe to call; what remains
//! are those calls and the unaligned loads and stores of [`load`],
//! [`store`] and [`xor_into64`].
//!
//! GHASH folds four blocks per reduction: `(y ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕ X₃·H² ⊕
//! X₄·H` is four steps of `y ← (y ⊕ X)·H`, and the reduction is linear, so
//! the four 256-bit products are XORed and reduced once (Gueron and
//! Kounavis, Intel white paper 323640, the aggregated reduction). `H²` to
//! `H⁴` are computed per message, and only for one longer than 64 bytes:
//! for a shorter one their latency outweighs the reductions saved.
//!
//! Salsa20 has three tiers, picked per call by `salsa20::xor_keystream`:
//! [`Avx512`] over the whole 1 KiB groups of a message (one block per lane
//! of sixteen-lane registers, with the native lane rotate), [`Sse2`] over
//! the whole 256-byte groups of what is left, and the portable one-block
//! kernel over the rest. All three expand `salsa20::double_round!`.
//!
//! Every kernel produces the bytes of its portable counterpart; the tests in
//! `kernel_pairs.rs` hold the two, and the `reference` oracle, to that.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

use crate::keys::{Key256, Nonce8};
use crate::salsa20;
use crate::sha256;

/// Loads 16 bytes into a register.
#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes and `loadu` takes any alignment;
    // its one feature, SSE2, is in the x86-64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// The 16 bytes of a register, in memory order.
#[inline(always)]
fn store(v: __m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    // SAFETY: `out` is 16 writable bytes and `storeu` takes any alignment;
    // its one feature, SSE2, is in the x86-64 baseline.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
    out
}

/// `dst ^= v` for a 16-byte `dst`.
#[target_feature(enable = "sse2")]
#[inline]
fn xor_into(dst: &mut [u8], v: __m128i) {
    let dst: &mut [u8; 16] = dst.try_into().expect("a 16-byte block");
    *dst = store(_mm_xor_si128(load(dst), v));
}

/// Four consecutive little-endian `u32`s as one register.
#[target_feature(enable = "sse2")]
#[inline]
fn words(w: &[u32]) -> __m128i {
    _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
}

/// The CPU has AES-NI: AES-128 key expansion and encryption.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AesNi(());

impl AesNi {
    /// `Some` exactly when the CPU has AES-NI.
    pub(crate) fn detect() -> Option<AesNi> {
        is_x86_feature_detected!("aes").then_some(AesNi(()))
    }

    /// The key schedule of `key`, in [`crate::aes`]'s word layout.
    pub(crate) fn expand(self, key: &[u8; 16]) -> [u32; 44] {
        // SAFETY: an `AesNi` exists only where the probe found AES-NI.
        unsafe { aes_expand(key) }
    }

    pub(crate) fn encrypt_block(self, rk: &[u32; 44], block: [u8; 16]) -> [u8; 16] {
        // SAFETY: an `AesNi` exists only where the probe found AES-NI.
        unsafe { aes_encrypt_block(rk, block) }
    }

    /// [`crate::aes::Aes128::cbc_mac`].
    pub(crate) fn cbc_mac(self, rk: &[u32; 44], blocks: &[u8], last: [u8; 16]) -> [u8; 16] {
        // SAFETY: an `AesNi` exists only where the probe found AES-NI.
        unsafe { aes_cbc_mac(rk, blocks, last) }
    }

    /// [`crate::aes::Aes128::ctr32_xor`].
    pub(crate) fn ctr32_xor(self, rk: &[u32; 44], j0: &[u8; 16], data: &mut [u8]) {
        // SAFETY: an `AesNi` exists only where the probe found AES-NI.
        unsafe { aes_ctr32_xor(rk, j0, data) }
    }
}

#[target_feature(enable = "sse2")]
#[inline]
fn round_keys(rk: &[u32; 44]) -> [__m128i; 11] {
    std::array::from_fn(|r| words(&rk[4 * r..4 * r + 4]))
}

#[target_feature(enable = "aes")]
fn aes_expand(key: &[u8; 16]) -> [u32; 44] {
    // Intel's AES-NI white paper, §4: `aeskeygenassist` gives
    // SubWord(RotWord(w3)) ^ rcon in its top word; the four words of the
    // next round key are its prefix-XOR with the previous round key's.
    #[target_feature(enable = "aes")]
    fn next<const RCON: i32>(prev: __m128i) -> __m128i {
        let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(prev));
        let k = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
        let k = _mm_xor_si128(k, _mm_slli_si128::<8>(k));
        _mm_xor_si128(k, assist)
    }
    let mut k = [load(key); 11];
    k[1] = next::<0x01>(k[0]);
    k[2] = next::<0x02>(k[1]);
    k[3] = next::<0x04>(k[2]);
    k[4] = next::<0x08>(k[3]);
    k[5] = next::<0x10>(k[4]);
    k[6] = next::<0x20>(k[5]);
    k[7] = next::<0x40>(k[6]);
    k[8] = next::<0x80>(k[7]);
    k[9] = next::<0x1b>(k[8]);
    k[10] = next::<0x36>(k[9]);
    let mut rk = [0u32; 44];
    for (words, key) in rk.chunks_exact_mut(4).zip(k) {
        for (w, b) in words.iter_mut().zip(store(key).chunks_exact(4)) {
            *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    rk
}

#[target_feature(enable = "aes")]
fn encrypt(k: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut b = _mm_xor_si128(block, k[0]);
    for rk in &k[1..10] {
        b = _mm_aesenc_si128(b, *rk);
    }
    _mm_aesenclast_si128(b, k[10])
}

/// Four independent blocks, interleaved round by round so the AES unit's
/// pipeline is full.
#[target_feature(enable = "aes")]
fn encrypt4(k: &[__m128i; 11], blocks: [__m128i; 4]) -> [__m128i; 4] {
    let mut b = blocks.map(|x| _mm_xor_si128(x, k[0]));
    for rk in &k[1..10] {
        for x in &mut b {
            *x = _mm_aesenc_si128(*x, *rk);
        }
    }
    b.map(|x| _mm_aesenclast_si128(x, k[10]))
}

#[target_feature(enable = "aes")]
fn aes_encrypt_block(rk: &[u32; 44], block: [u8; 16]) -> [u8; 16] {
    store(encrypt(&round_keys(rk), load(&block)))
}

#[target_feature(enable = "aes")]
fn aes_cbc_mac(rk: &[u32; 44], blocks: &[u8], last: [u8; 16]) -> [u8; 16] {
    let k = round_keys(rk);
    let mut x = _mm_setzero_si128();
    for block in blocks.chunks_exact(16) {
        let block = block.try_into().expect("chunks_exact yields 16 bytes");
        x = encrypt(&k, _mm_xor_si128(x, load(block)));
    }
    store(encrypt(&k, _mm_xor_si128(x, load(&last))))
}

#[target_feature(enable = "aes")]
fn aes_ctr32_xor(rk: &[u32; 44], j0: &[u8; 16], data: &mut [u8]) {
    let k = round_keys(rk);
    let ctr0 = u32::from_be_bytes([j0[12], j0[13], j0[14], j0[15]]);
    // The first twelve bytes of every counter block, and the last four
    // (big-endian `inc32` of J0) placed in the top lane.
    let prefix = _mm_and_si128(load(j0), _mm_set_epi32(0, -1, -1, -1));
    let block = |i: u32| {
        let low = i32::from_le_bytes(ctr0.wrapping_add(i).to_be_bytes());
        _mm_or_si128(prefix, _mm_set_epi32(low, 0, 0, 0))
    };
    let mut next = 1u32;
    let mut groups = data.chunks_exact_mut(64);
    for group in &mut groups {
        let ks = encrypt4(&k, [0, 1, 2, 3].map(|i| block(next.wrapping_add(i))));
        next = next.wrapping_add(4);
        for (chunk, ks) in group.chunks_exact_mut(16).zip(ks) {
            xor_into(chunk, ks);
        }
    }
    for chunk in groups.into_remainder().chunks_mut(16) {
        let ks = store(encrypt(&k, block(next)));
        next = next.wrapping_add(1);
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
    }
}

/// The CPU has PCLMULQDQ (and SSSE3 for the byte swap): GHASH.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Clmul(());

impl Clmul {
    /// `Some` exactly when the CPU has PCLMULQDQ and SSSE3.
    pub(crate) fn detect() -> Option<Clmul> {
        (is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("ssse3"))
            .then_some(Clmul(()))
    }

    /// GHASH under `h` of `aad` and `ct`, in [`crate::gcm`]'s `u128`
    /// convention (the block read big-endian).
    pub(crate) fn ghash(self, h: u128, aad: &[u8], ct: &[u8]) -> u128 {
        // SAFETY: a `Clmul` exists only where the probe found PCLMULQDQ and
        // SSSE3.
        unsafe { ghash(h, aad, ct) }
    }
}

/// A `u128` in a register, least significant byte first. A GCM block read
/// big-endian is then the block byte-reversed, which is the operand order
/// Intel's carry-less multiplication white paper works in.
#[target_feature(enable = "sse2")]
#[inline]
fn from_u128(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[target_feature(enable = "ssse3")]
fn load_be(block: &[u8; 16]) -> __m128i {
    let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    _mm_shuffle_epi8(load(block), reverse)
}

/// The 256-bit carry-less product `a · b` as `[lo, hi]`: Karatsuba-free
/// schoolbook, before [`reduce`].
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn clmul(a: __m128i, b: __m128i) -> [__m128i; 2] {
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    [
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(a, b), _mm_slli_si128::<8>(mid)),
        _mm_xor_si128(_mm_clmulepi64_si128::<0x11>(a, b), _mm_srli_si128::<8>(mid)),
    ]
}

/// A 256-bit carry-less product, or the XOR of several, as an element of
/// GF(2¹²⁸): a one-bit left shift for the bit-reflected convention and the
/// shift-and-XOR reduction by x¹²⁸ + x⁷ + x² + x + 1 (Gueron and Kounavis,
/// Intel white paper 323640, Algorithm 5). Both steps are linear.
#[target_feature(enable = "sse2")]
#[inline]
fn reduce([lo, hi]: [__m128i; 2]) -> __m128i {
    // [hi:lo] <<= 1, carrying across the 32-bit lanes and the two halves.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );
    // Fold the low half into the high one.
    let t = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(t));
    let u = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), _mm_srli_si128::<4>(t)),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, u))
}

/// `a · b` in GF(2¹²⁸).
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    reduce(clmul(a, b))
}

/// Folds `data`, zero-padded to whole blocks, into `y`. With `powers`
/// (`H` to `H⁴`), each whole four-block group is `(y ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕
/// X₃·H² ⊕ X₄·H` with one reduction; the blocks after the last group, or
/// all of them without `powers`, are one step `y ← (y ⊕ X)·H` each.
#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_update(h: __m128i, powers: Option<&[__m128i; 4]>, mut y: __m128i, data: &[u8]) -> __m128i {
    let mut blocks = data.chunks_exact(16);
    if let Some(p) = powers {
        let mut groups = data.chunks_exact(64);
        for group in &mut groups {
            let x: [__m128i; 4] = std::array::from_fn(|i| {
                load_be(group[16 * i..16 * i + 16].try_into().expect("16 bytes"))
            });
            let mut acc = clmul(_mm_xor_si128(y, x[0]), p[3]);
            for i in 1..4 {
                let [lo, hi] = clmul(x[i], p[3 - i]);
                acc = [_mm_xor_si128(acc[0], lo), _mm_xor_si128(acc[1], hi)];
            }
            y = reduce(acc);
        }
        blocks = groups.remainder().chunks_exact(16);
    }
    for block in &mut blocks {
        let block = block.try_into().expect("chunks_exact yields 16 bytes");
        y = gf_mul(_mm_xor_si128(y, load_be(block)), h);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut block = [0u8; 16];
        block[..rest.len()].copy_from_slice(rest);
        y = gf_mul(_mm_xor_si128(y, load_be(&block)), h);
    }
    y
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let h = from_u128(h);
    // H² to H⁴ cost two products of latency, which one four-block group
    // does not win back: a message of 64 bytes or less takes a reduction
    // per block.
    let powers = (aad.len() + ct.len() > 64).then(|| {
        let h2 = gf_mul(h, h);
        [h, h2, gf_mul(h2, h), gf_mul(h2, h2)]
    });
    let y = ghash_update(h, powers.as_ref(), _mm_setzero_si128(), aad);
    let y = ghash_update(h, powers.as_ref(), y, ct);
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    u128::from_le_bytes(store(gf_mul(_mm_xor_si128(y, from_u128(lens)), h)))
}

/// The CPU has the SHA extensions (and SSSE3 and SSE4.1 for the shuffles):
/// SHA-256 compression.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` exactly when the CPU has SHA, SSSE3 and SSE4.1.
    pub(crate) fn detect() -> Option<ShaNi> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Compresses `blocks` (whole 64-byte blocks) into `state`.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: a `ShaNi` exists only where the probe found SHA, SSSE3 and
        // SSE4.1.
        unsafe { sha256_compress(state, blocks) }
    }
}

/// `W[4i + 4..4i + 8]` from the four previous message-word quadruples
/// (FIPS 180-4 §6.2.2 step 1, four words per step).
#[target_feature(enable = "sha,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Message words are big-endian within each four-byte group.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // `sha256rnds2` keeps the state as ABEF and CDGH (lanes high to low).
    let abcd = _mm_shuffle_epi32::<0xb1>(words(&state[..4])); // CDAB
    let efgh = _mm_shuffle_epi32::<0x1b>(words(&state[4..])); // EFGH
    let mut abef = _mm_alignr_epi8::<8>(abcd, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, abcd);
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w: [__m128i; 4] = std::array::from_fn(|i| {
            let quad = block[16 * i..16 * i + 16].try_into().expect("16 bytes");
            _mm_shuffle_epi8(load(quad), byte_swap)
        });
        for i in 0..16 {
            if i >= 4 {
                w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            }
            let wk = _mm_add_epi32(w[i % 4], words(&sha256::K[4 * i..4 * i + 4]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let abcd = store(_mm_blend_epi16::<0xf0>(feba, dchg)); // DCBA
    let efgh = store(_mm_alignr_epi8::<8>(dchg, feba)); // HGFE
    for (w, b) in state
        .iter_mut()
        .zip(abcd.chunks_exact(4).chain(efgh.chunks_exact(4)))
    {
        *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// SSE2, which every x86-64 CPU has: Salsa20 four blocks per pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sse2(());

impl Sse2 {
    /// SSE2 is part of the x86-64 baseline, so this cannot fail.
    pub(crate) fn detect() -> Sse2 {
        Sse2(())
    }

    /// XORs the keystream from block `counter` into the leading whole
    /// 256-byte groups of `data`, and returns how many bytes that was.
    pub(crate) fn salsa20_xor(
        self,
        key: &Key256,
        nonce: &Nonce8,
        counter: u64,
        data: &mut [u8],
    ) -> usize {
        // SAFETY: every x86-64 CPU has SSE2, and an `Sse2` exists only on
        // x86-64.
        unsafe { salsa20_xor4(key, nonce, counter, data) }
    }
}

/// `v <<< L` in each lane, for `R = 32 − L`: SSE2 has no lane rotate.
#[target_feature(enable = "sse2")]
#[inline]
fn rotl<const L: i32, const R: i32>(v: __m128i) -> __m128i {
    _mm_or_si128(_mm_slli_epi32::<L>(v), _mm_srli_epi32::<R>(v))
}

/// The Salsa20 quarter round on four blocks, one per lane.
#[target_feature(enable = "sse2")]
#[inline]
fn quarter_round(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[b] = _mm_xor_si128(x[b], rotl::<7, 25>(_mm_add_epi32(x[a], x[d])));
    x[c] = _mm_xor_si128(x[c], rotl::<9, 23>(_mm_add_epi32(x[b], x[a])));
    x[d] = _mm_xor_si128(x[d], rotl::<13, 19>(_mm_add_epi32(x[c], x[b])));
    x[a] = _mm_xor_si128(x[a], rotl::<18, 14>(_mm_add_epi32(x[d], x[c])));
}

/// Transposes four registers of four `u32` lanes.
#[target_feature(enable = "sse2")]
#[inline]
fn transpose(r: [__m128i; 4]) -> [__m128i; 4] {
    let t0 = _mm_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm_unpacklo_epi32(r[2], r[3]);
    let t2 = _mm_unpackhi_epi32(r[0], r[1]);
    let t3 = _mm_unpackhi_epi32(r[2], r[3]);
    [
        _mm_unpacklo_epi64(t0, t1),
        _mm_unpackhi_epi64(t0, t1),
        _mm_unpacklo_epi64(t2, t3),
        _mm_unpackhi_epi64(t2, t3),
    ]
}

#[target_feature(enable = "sse2")]
fn salsa20_xor4(key: &Key256, nonce: &Nonce8, mut counter: u64, data: &mut [u8]) -> usize {
    let whole = data.len() / 256 * 256;
    let state = salsa20::initial_state(key, nonce, 0);
    let mut groups = data.chunks_exact_mut(256);
    for group in &mut groups {
        let mut x: [__m128i; 16] = state.map(|w| _mm_set1_epi32(w as i32));
        // Words 8 and 9 are the block counter, low then high: the carry
        // into word 9 and a wrap past u64::MAX happen per lane.
        let c: [u64; 4] = std::array::from_fn(|i| counter.wrapping_add(i as u64));
        x[8] = _mm_set_epi32(c[3] as i32, c[2] as i32, c[1] as i32, c[0] as i32);
        x[9] = _mm_set_epi32(
            (c[3] >> 32) as i32,
            (c[2] >> 32) as i32,
            (c[1] >> 32) as i32,
            (c[0] >> 32) as i32,
        );
        let input = x;
        for _ in 0..10 {
            salsa20::double_round!(quarter_round, &mut x);
        }
        for (w, i) in x.iter_mut().zip(input) {
            *w = _mm_add_epi32(*w, i);
        }
        // x[w] holds word w of the four blocks; block b's words 4q..4q + 4
        // are lane b of x[4q..4q + 4].
        for q in 0..4 {
            let quad = transpose([x[4 * q], x[4 * q + 1], x[4 * q + 2], x[4 * q + 3]]);
            for (b, ks) in quad.into_iter().enumerate() {
                xor_into(&mut group[64 * b + 16 * q..64 * b + 16 * q + 16], ks);
            }
        }
        counter = counter.wrapping_add(4);
    }
    whole
}

/// The CPU has AVX-512F: Salsa20 sixteen blocks per pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// `Some` exactly when the CPU has AVX-512F.
    pub(crate) fn detect() -> Option<Avx512> {
        is_x86_feature_detected!("avx512f").then_some(Avx512(()))
    }

    /// XORs the keystream from block `counter` into the leading whole
    /// 1 KiB groups of `data`, and returns how many bytes that was.
    pub(crate) fn salsa20_xor(
        self,
        key: &Key256,
        nonce: &Nonce8,
        counter: u64,
        data: &mut [u8],
    ) -> usize {
        // SAFETY: an `Avx512` exists only where the probe found AVX-512F.
        unsafe { salsa20_xor16(key, nonce, counter, data) }
    }
}

/// `dst ^= v` for a 64-byte `dst`.
#[target_feature(enable = "avx512f")]
#[inline]
fn xor_into64(dst: &mut [u8], v: __m512i) {
    let dst: &mut [u8; 64] = dst.try_into().expect("a 64-byte block");
    // SAFETY: `dst` is 64 readable and writable bytes and `loadu`/`storeu`
    // take any alignment; their one feature, AVX-512F, is enabled here, and
    // only an `Avx512` token reaches the kernel that calls this.
    unsafe {
        let d = _mm512_loadu_si512(dst.as_ptr().cast());
        _mm512_storeu_si512(dst.as_mut_ptr().cast(), _mm512_xor_si512(d, v));
    }
}

/// The Salsa20 quarter round on sixteen blocks, one per lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn quarter_round16(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[b] = _mm512_xor_si512(x[b], _mm512_rol_epi32::<7>(_mm512_add_epi32(x[a], x[d])));
    x[c] = _mm512_xor_si512(x[c], _mm512_rol_epi32::<9>(_mm512_add_epi32(x[b], x[a])));
    x[d] = _mm512_xor_si512(x[d], _mm512_rol_epi32::<13>(_mm512_add_epi32(x[c], x[b])));
    x[a] = _mm512_xor_si512(x[a], _mm512_rol_epi32::<18>(_mm512_add_epi32(x[d], x[c])));
}

/// [`transpose`] within each 128-bit lane of four registers.
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose_lanes(r: [__m512i; 4]) -> [__m512i; 4] {
    let t0 = _mm512_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm512_unpacklo_epi32(r[2], r[3]);
    let t2 = _mm512_unpackhi_epi32(r[0], r[1]);
    let t3 = _mm512_unpackhi_epi32(r[2], r[3]);
    [
        _mm512_unpacklo_epi64(t0, t1),
        _mm512_unpackhi_epi64(t0, t1),
        _mm512_unpacklo_epi64(t2, t3),
        _mm512_unpackhi_epi64(t2, t3),
    ]
}

/// Transposes four registers of four 128-bit lanes: lane `l` of output `i`
/// is lane `i` of input `l`.
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose_quads(r: [__m512i; 4]) -> [__m512i; 4] {
    let r01_lo = _mm512_shuffle_i32x4::<0x44>(r[0], r[1]); // r0.0 r0.1 r1.0 r1.1
    let r01_hi = _mm512_shuffle_i32x4::<0xee>(r[0], r[1]); // r0.2 r0.3 r1.2 r1.3
    let r23_lo = _mm512_shuffle_i32x4::<0x44>(r[2], r[3]);
    let r23_hi = _mm512_shuffle_i32x4::<0xee>(r[2], r[3]);
    [
        _mm512_shuffle_i32x4::<0x88>(r01_lo, r23_lo), // r0.0 r1.0 r2.0 r3.0
        _mm512_shuffle_i32x4::<0xdd>(r01_lo, r23_lo),
        _mm512_shuffle_i32x4::<0x88>(r01_hi, r23_hi),
        _mm512_shuffle_i32x4::<0xdd>(r01_hi, r23_hi),
    ]
}

/// Words 8 and 9, the block counter low then high, of blocks `counter` to
/// `counter + 15`, one block per lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn counter_words(counter: u64) -> [__m512i; 2] {
    let first = _mm512_set1_epi32(counter as i32);
    let lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    let low = _mm512_add_epi32(first, lane);
    let high = _mm512_set1_epi32((counter >> 32) as i32);
    // A lane whose low word is below the first lane's has wrapped and
    // carries into word 9, which wraps past u64::MAX on its own.
    let carry = _mm512_cmplt_epu32_mask(low, first);
    [
        low,
        _mm512_mask_add_epi32(high, carry, high, _mm512_set1_epi32(1)),
    ]
}

#[target_feature(enable = "avx512f")]
fn salsa20_xor16(key: &Key256, nonce: &Nonce8, mut counter: u64, data: &mut [u8]) -> usize {
    let whole = data.len() / 1024 * 1024;
    let state = salsa20::initial_state(key, nonce, 0);
    for group in data.chunks_exact_mut(1024) {
        let mut x: [__m512i; 16] = state.map(|w| _mm512_set1_epi32(w as i32));
        [x[8], x[9]] = counter_words(counter);
        let input = x;
        for _ in 0..10 {
            salsa20::double_round!(quarter_round16, &mut x);
        }
        for (w, i) in x.iter_mut().zip(input) {
            *w = _mm512_add_epi32(*w, i);
        }
        // x[w] holds word w of the sixteen blocks, block b in lane b. After
        // transposing each 128-bit lane, lane l of y[q][j] is words
        // 4q..4q + 4 of block 4l + j; transposing those lanes across q
        // gathers blocks j, 4 + j, 8 + j and 12 + j whole.
        let y: [[__m512i; 4]; 4] = std::array::from_fn(|q| {
            transpose_lanes([x[4 * q], x[4 * q + 1], x[4 * q + 2], x[4 * q + 3]])
        });
        for j in 0..4 {
            let blocks = transpose_quads(y.map(|quads| quads[j]));
            for (l, ks) in blocks.into_iter().enumerate() {
                let b = 4 * l + j;
                xor_into64(&mut group[64 * b..64 * b + 64], ks);
            }
        }
        counter = counter.wrapping_add(16);
    }
    whole
}
