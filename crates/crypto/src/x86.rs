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
//! GHASH folds up to eight blocks per reduction: `(y ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕
//! … ⊕ Xₙ·H` is `n` steps of `y ← (y ⊕ X)·H`, and the reduction is linear,
//! so the `n` 256-bit products are XORed and reduced once (Gueron and
//! Kounavis, Intel white paper 323640, the aggregated reduction). The
//! powers `H` to `H⁸` belong to the key: [`Clmul::powers`] computes them
//! once, when a `GcmKey` is built, and every message — of any length, the
//! AAD, the text and the lengths block as one stream of blocks — then costs
//! one reduction per eight blocks.
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

use crate::gcm;
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

    /// The key schedule of `key`, in [`crate::aes`]'s word layout, and
    /// the encryption of the zero block under it.
    pub(crate) fn expand(self, key: &[u8; 16]) -> ([u32; 44], [u8; 16]) {
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
fn aes_expand(key: &[u8; 16]) -> ([u32; 44], [u8; 16]) {
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
    // The zero block is encrypted alongside, each round as soon as its key
    // exists: E(0) — GCM's hash key, CMAC's subkey seed — costs one round
    // past the schedule instead of a pass of its own.
    let mut k = [load(key); 11];
    let mut zero = k[0];
    k[1] = next::<0x01>(k[0]);
    zero = _mm_aesenc_si128(zero, k[1]);
    k[2] = next::<0x02>(k[1]);
    zero = _mm_aesenc_si128(zero, k[2]);
    k[3] = next::<0x04>(k[2]);
    zero = _mm_aesenc_si128(zero, k[3]);
    k[4] = next::<0x08>(k[3]);
    zero = _mm_aesenc_si128(zero, k[4]);
    k[5] = next::<0x10>(k[4]);
    zero = _mm_aesenc_si128(zero, k[5]);
    k[6] = next::<0x20>(k[5]);
    zero = _mm_aesenc_si128(zero, k[6]);
    k[7] = next::<0x40>(k[6]);
    zero = _mm_aesenc_si128(zero, k[7]);
    k[8] = next::<0x80>(k[7]);
    zero = _mm_aesenc_si128(zero, k[8]);
    k[9] = next::<0x1b>(k[8]);
    zero = _mm_aesenc_si128(zero, k[9]);
    k[10] = next::<0x36>(k[9]);
    let zero = _mm_aesenclast_si128(zero, k[10]);
    let mut rk = [0u32; 44];
    for (words, key) in rk.chunks_exact_mut(4).zip(k) {
        for (w, b) in words.iter_mut().zip(store(key).chunks_exact(4)) {
            *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    (rk, store(zero))
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

    /// `H`, `H²`, …, `H⁸` for the hash key `h` (given in [`crate::gcm`]'s
    /// `u128` convention), each times `x⁻¹` (see [`reduce`]) and as the 16
    /// bytes of its register: what a key keeps for [`ghash`](Self::ghash).
    pub(crate) fn powers(self, h: u128) -> [[u8; 16]; 8] {
        // SAFETY: a `Clmul` exists only where the probe found PCLMULQDQ and
        // SSSE3.
        unsafe { ghash_powers(h) }
    }

    /// GHASH of `aad` and `ct` under the key whose [`powers`](Self::powers)
    /// are `powers`, in [`crate::gcm`]'s `u128` convention (the block read
    /// big-endian).
    pub(crate) fn ghash(self, powers: &[[u8; 16]; 8], aad: &[u8], ct: &[u8]) -> u128 {
        // SAFETY: a `Clmul` exists only where the probe found PCLMULQDQ and
        // SSSE3.
        unsafe { ghash(powers, aad, ct) }
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

/// The inverse of [`from_u128`].
#[target_feature(enable = "sse2")]
#[inline]
fn to_u128(v: __m128i) -> u128 {
    u128::from_le_bytes(store(v))
}

#[target_feature(enable = "ssse3")]
#[inline]
fn load_be(block: &[u8; 16]) -> __m128i {
    let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    _mm_shuffle_epi8(load(block), reverse)
}

/// A 256-bit carry-less product, or the XOR of several, as an element of
/// GF(2¹²⁸), times `x`: the shift-and-XOR reduction by x¹²⁸ + x⁷ + x² + x +
/// 1 (Gueron and Kounavis, Intel white paper 323640, Algorithm 5) without
/// its first step. The carry-less product of two bit-reflected operands is
/// the reflected product one bit short of 256, which the algorithm shifts
/// left; that shift is a multiplication by `x`, so the powers of `H` are
/// kept times `x⁻¹` instead ([`Clmul::powers`]) and the shift is never
/// made. The reduction is linear.
#[target_feature(enable = "sse2")]
#[inline]
fn reduce([lo, hi]: [__m128i; 2]) -> __m128i {
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

/// `a · b · x` in GF(2¹²⁸) (see [`reduce`]).
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    let mut product = Products::zero();
    product.add(
        a,
        Power {
            h: b,
            halves: halves(b),
        },
    );
    product.reduce()
}

/// `a² · x` in GF(2¹²⁸) (see [`reduce`]): squaring is linear in
/// characteristic 2, so the two cross products cancel.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn gf_square(a: __m128i) -> __m128i {
    reduce([
        _mm_clmulepi64_si128::<0x00>(a, a),
        _mm_clmulepi64_si128::<0x11>(a, a),
    ])
}

#[target_feature(enable = "pclmulqdq")]
fn ghash_powers(h: u128) -> [[u8; 16]; 8] {
    // Every power times x⁻¹: the product of two such, times x, is the next
    // such. Three products deep: H², then H³ and H⁴, then H⁵ to H⁸ side by
    // side.
    let h1 = from_u128(gcm::div_x(h));
    let h2 = gf_square(h1);
    let (h3, h4) = (gf_mul(h2, h1), gf_square(h2));
    [
        h1,
        h2,
        h3,
        h4,
        gf_mul(h4, h1),
        gf_mul(h4, h2),
        gf_mul(h4, h3),
        gf_square(h4),
    ]
    .map(store)
}

/// A power of `H` as the aggregated multiply takes it: the power, and the
/// XOR of its two 64-bit halves in the low lane (Karatsuba's middle
/// operand).
#[derive(Clone, Copy)]
struct Power {
    h: __m128i,
    halves: __m128i,
}

impl Power {
    /// The power kept as `bytes`.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn load(bytes: &[u8; 16]) -> Power {
        let h = load(bytes);
        Power {
            h,
            halves: halves(h),
        }
    }
}

/// The XOR of `v`'s two 64-bit halves, in both lanes.
#[target_feature(enable = "sse2")]
#[inline]
fn halves(v: __m128i) -> __m128i {
    _mm_xor_si128(v, _mm_shuffle_epi32::<0x4e>(v))
}

/// Unreduced products `Σ Xᵢ·Pᵢ`, Karatsuba-style: three carry-less
/// multiplies per block, the middle terms recombined once per sum.
#[derive(Clone, Copy)]
struct Products {
    lo: __m128i,
    hi: __m128i,
    mid: __m128i,
}

impl Products {
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn zero() -> Products {
        let zero = _mm_setzero_si128();
        Products {
            lo: zero,
            hi: zero,
            mid: zero,
        }
    }

    /// Adds `x · p`.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn add(&mut self, x: __m128i, p: Power) {
        self.lo = _mm_xor_si128(self.lo, _mm_clmulepi64_si128::<0x00>(x, p.h));
        self.hi = _mm_xor_si128(self.hi, _mm_clmulepi64_si128::<0x11>(x, p.h));
        let mid = _mm_clmulepi64_si128::<0x00>(halves(x), p.halves);
        self.mid = _mm_xor_si128(self.mid, mid);
    }

    /// The sum as an element of GF(2¹²⁸).
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn reduce(self) -> __m128i {
        let mid = _mm_xor_si128(self.mid, _mm_xor_si128(self.lo, self.hi));
        reduce([
            _mm_xor_si128(self.lo, _mm_slli_si128::<8>(mid)),
            _mm_xor_si128(self.hi, _mm_srli_si128::<8>(mid)),
        ])
    }
}

/// GHASH's running sum over one stream of blocks (the AAD, the text and
/// the lengths block), folded in groups of up to eight from the start: the
/// `p`-th block of a group of `n` is multiplied by `Hⁿ⁻ᵖ` (the first one
/// after adding `y` in), the products are XORed, and the group's sum is
/// reduced once into `y`.
#[derive(Clone, Copy)]
struct Fold {
    y: __m128i,
    sum: Products,
    /// Blocks pushed so far, and how many the stream has.
    pushed: usize,
    blocks: usize,
}

impl Fold {
    /// Adds block `x` under the powers `h` (`h[i]` is `Hⁱ⁺¹`).
    #[target_feature(enable = "pclmulqdq,ssse3")]
    #[inline]
    fn push(&mut self, h: &[[u8; 16]; 8], x: __m128i) {
        let p = self.pushed % 8;
        let n = (self.blocks - (self.pushed - p)).min(8);
        let x = if p == 0 { _mm_xor_si128(x, self.y) } else { x };
        self.sum.add(x, Power::load(&h[n - 1 - p]));
        self.pushed += 1;
        if p + 1 == n {
            self.y = self.sum.reduce();
            self.sum = Products::zero();
        }
    }

    /// Pushes `data`, zero-padded to whole blocks. The sum is worked on in
    /// a copy, which stays in registers, and written back once.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb(&mut self, h: &[[u8; 16]; 8], mut data: &[u8]) {
        let mut fold = *self;
        // Whole groups of eight that start a group, unrolled. `push` folds
        // them to the same sum, but pays its group arithmetic and a power
        // load per block: without this loop a 4 KiB GHASH takes 1.5× as
        // long (EXPERIMENTS.md, "Host time of an op path that allocates
        // nothing").
        while fold.pushed.is_multiple_of(8) && fold.blocks - fold.pushed >= 8 && data.len() >= 128 {
            let (group, rest) = data.split_at(128);
            let mut sum = Products::zero();
            for i in 0..8 {
                let x = load_be(group[16 * i..16 * i + 16].try_into().expect("16 bytes"));
                let x = if i == 0 { _mm_xor_si128(x, fold.y) } else { x };
                sum.add(x, Power::load(&h[7 - i]));
            }
            fold.y = sum.reduce();
            fold.pushed += 8;
            data = rest;
        }
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            fold.push(
                h,
                load_be(block.try_into().expect("chunks_exact yields 16 bytes")),
            );
        }
        // A partial block is assembled in a register, byte by byte: a
        // 16-byte load of bytes just copied into a padded buffer would wait
        // for the copy's stores to land.
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let block = rest
                .iter()
                .enumerate()
                .fold(0u128, |v, (i, &b)| v | (u128::from(b) << (120 - 8 * i)));
            fold.push(h, from_u128(block));
        }
        *self = fold;
    }
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash(h: &[[u8; 16]; 8], aad: &[u8], ct: &[u8]) -> u128 {
    let mut fold = Fold {
        y: _mm_setzero_si128(),
        sum: Products::zero(),
        pushed: 0,
        blocks: aad.len().div_ceil(16) + ct.len().div_ceil(16) + 1,
    };
    fold.absorb(h, aad);
    fold.absorb(h, ct);
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    fold.push(h, from_u128(lens));
    to_u128(fold.y)
}

/// The CPU has the SHA extensions (and SSSE3 and SSE4.1 for the shuffles):
/// SHA-256 compression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[inline]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

/// The state as `sha256rnds2` keeps it: ABEF and CDGH (lanes high to low),
/// loaded, and stored back below, sixteen bytes at a time.
#[target_feature(enable = "sse4.1")]
#[inline]
fn load_state(state: &[u32; 8]) -> [__m128i; 2] {
    // SAFETY: `state` is 32 readable bytes and `loadu` takes any alignment;
    // its one feature, SSE2, is in the x86-64 baseline.
    let [dcba, hgfe] = unsafe { [0, 4].map(|i| _mm_loadu_si128(state[i..].as_ptr().cast())) };
    let abcd = _mm_shuffle_epi32::<0xb1>(dcba); // CDAB
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe); // EFGH
    [
        _mm_alignr_epi8::<8>(abcd, efgh),
        _mm_blend_epi16::<0xf0>(efgh, abcd),
    ]
}

#[target_feature(enable = "sse4.1")]
#[inline]
fn store_state(state: &mut [u32; 8], [abef, cdgh]: [__m128i; 2]) {
    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 writable bytes and `storeu` takes any
    // alignment; its one feature, SSE2, is in the x86-64 baseline.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), hgfe);
    }
}

/// One block's 64 rounds on the state, from its message words `w` (four
/// big-endian words per register, the first in the low lane).
#[target_feature(enable = "sha,ssse3,sse4.1")]
#[inline]
fn sha256_block([mut abef, mut cdgh]: [__m128i; 2], mut w: [__m128i; 4]) -> [__m128i; 2] {
    let (abef_in, cdgh_in) = (abef, cdgh);
    for i in 0..16 {
        if i >= 4 {
            w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
        }
        let wk = _mm_add_epi32(w[i % 4], words(&sha256::K[4 * i..4 * i + 4]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }
    [_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in)]
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Message words are big-endian within each four-byte group.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let mut s = load_state(state);
    for block in blocks.chunks_exact(64) {
        let w = std::array::from_fn(|i| {
            let quad = block[16 * i..16 * i + 16].try_into().expect("16 bytes");
            _mm_shuffle_epi8(load(quad), byte_swap)
        });
        s = sha256_block(s, w);
    }
    store_state(state, s);
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
