//! Every kernel pair on every host: each check runs once on the portable
//! kernel and once on the hardware one, against the `reference` oracle or a
//! published vector where one exists and against each other where not.
//!
//! `tests/proptests.rs` checks the public API, which on an x86-64 host with
//! the instructions runs the hardware kernels; these tests are what keeps
//! the portable kernels checked there. Where the probe finds an instruction
//! missing, the hardware half prints `skipped: <feature> absent` and
//! returns, so `--nocapture` shows which halves a runner ran.

use precursor_sim::rng::SimRng;

use crate::aes::{self, Aes128};
use crate::cmac;
use crate::gcm::{GcmKey, Ghash};
use crate::keys::{Key128, Key256, Nonce12, Nonce8};
use crate::reference;
use crate::salsa20;
use crate::sha256::{self, BLOCK_LEN, DIGEST_LEN};
#[cfg(target_arch = "x86_64")]
use crate::x86::{AesNi, Avx512, Clmul, ShaNi, Sse2};

fn rand_array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut b = [0u8; N];
    rng.fill_bytes(&mut b);
    b
}

fn rand_vec(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let mut v = vec![0u8; rng.gen_range(max_len as u64 + 1) as usize];
    rng.fill_bytes(&mut v);
    v
}

fn h2b(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

/// The hardware half's token, or `None` after saying why it is skipped.
#[cfg(target_arch = "x86_64")]
fn hardware<T>(probe: Option<T>, feature: &str) -> Option<T> {
    if probe.is_none() {
        println!("skipped: {feature} absent");
    }
    probe
}

/// FIPS 197 appendices B and C.1, then 512 random key/block pairs, each
/// against the byte-oriented oracle.
fn aes_against_reference(
    expand: impl Fn(&[u8; 16]) -> [u32; 44],
    encrypt: impl Fn(&[u32; 44], [u8; 16]) -> [u8; 16],
) {
    let fips = [
        [
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ],
        [
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ],
    ];
    for [key, pt, ct] in fips {
        let key: [u8; 16] = h2b(key).try_into().unwrap();
        let pt: [u8; 16] = h2b(pt).try_into().unwrap();
        assert_eq!(encrypt(&expand(&key), pt).to_vec(), h2b(ct));
    }
    let mut rng = SimRng::seed_from(0xb001);
    for _ in 0..512 {
        let key: [u8; 16] = rand_array(&mut rng);
        let block: [u8; 16] = rand_array(&mut rng);
        let rk = expand(&key);
        assert_eq!(rk, aes::expand_key(&key), "one schedule layout");
        assert_eq!(encrypt(&rk, block), reference::encrypt_block(&key, block));
    }
}

#[test]
fn aes_kernels_agree() {
    aes_against_reference(aes::expand_key, aes::encrypt_block);
    #[cfg(target_arch = "x86_64")]
    {
        let Some(aesni) = hardware(AesNi::detect(), "aes") else {
            return;
        };
        aes_against_reference(|k| aesni.expand(k), |rk, b| aesni.encrypt_block(rk, b));
    }
}

/// GCM's CTR from a J0 whose low word is `u32::MAX − 2`, over 1..=9
/// blocks (and a partial last block): `inc32` wraps to 0 inside the first
/// four-block group and must leave the first twelve bytes alone.
fn ctr_against_reference(ctr: impl Fn(&Key128, &[u8; 16], &mut [u8])) {
    let mut rng = SimRng::seed_from(0xb002);
    for blocks in 1..=9usize {
        for len in [16 * blocks - 9, 16 * blocks] {
            let key = Key128::from_bytes(rand_array(&mut rng));
            let mut j0: [u8; 16] = rand_array(&mut rng);
            j0[12..].copy_from_slice(&(u32::MAX - 2).to_be_bytes());
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut expected = data.clone();
            for (i, chunk) in expected.chunks_mut(16).enumerate() {
                let mut counter = j0;
                let low = (u32::MAX - 2).wrapping_add(1 + i as u32);
                counter[12..].copy_from_slice(&low.to_be_bytes());
                let ks = reference::encrypt_block(key.as_bytes(), counter);
                for (b, k) in chunk.iter_mut().zip(ks) {
                    *b ^= k;
                }
            }
            let mut out = data;
            ctr(&key, &j0, &mut out);
            assert_eq!(out, expected, "{blocks} blocks, {len} bytes");
        }
    }
}

#[test]
fn gcm_ctr_wraps_inc32_alike() {
    ctr_against_reference(|k, j0, d| Aes128::portable(k).ctr32_xor(j0, d));
    #[cfg(target_arch = "x86_64")]
    {
        let Some(aesni) = hardware(AesNi::detect(), "aes") else {
            return;
        };
        ctr_against_reference(|k, j0, d| aesni.ctr32_xor(&aesni.expand(k.as_bytes()), j0, d));
    }
}

fn ghash_against_reference(ghash: impl Fn(u128, &[u8], &[u8]) -> u128) {
    let check = |h: u128, aad: &[u8], x: &[u8]| {
        assert_eq!(
            ghash(h, aad, x),
            reference::ghash(h, aad, x),
            "h {h:#034x} aad {} x {}",
            aad.len(),
            x.len()
        );
    };
    let mut rng = SimRng::seed_from(0xb003);
    // One block, so the answer is ((X·H) ^ len)·H: every single-bit X and
    // every single-bit H walks each table entry, each shift position and
    // each carry of the reduction.
    for bit in 0..128 {
        let random = u128::from_be_bytes(rand_array(&mut rng));
        check(random, &[], &(1u128 << bit).to_be_bytes());
        check(1u128 << bit, &[], &random.to_be_bytes());
    }
    check(u128::MAX, &[], &u128::MAX.to_be_bytes());
    for _ in 0..256 {
        let h = u128::from_be_bytes(rand_array(&mut rng));
        check(h, &rand_vec(&mut rng, 70), &rand_vec(&mut rng, 300));
    }
    // Every AAD length and every text length 0..=300, the other one
    // cycling, so each stream ends on every count of whole blocks past a
    // four-block group and on every partial block; then one long text.
    let mut data = vec![0u8; 35_000];
    rng.fill_bytes(&mut data);
    let h = u128::from_be_bytes(rand_array(&mut rng));
    for len in 0..=300 {
        check(h, &data[..len], &data[1000..1000 + len * 7 % 301]);
        check(h, &data[..len * 11 % 301], &data[1000..1000 + len]);
    }
    check(h, &data[..13], &data);
}

#[test]
fn ghash_kernels_agree() {
    ghash_against_reference(|h, aad, x| Ghash::portable(h).ghash(aad, x));
    #[cfg(target_arch = "x86_64")]
    {
        let Some(clmul) = hardware(Clmul::detect(), "pclmulqdq or ssse3") else {
            return;
        };
        ghash_against_reference(|h, aad, x| clmul.ghash(h, aad, x));
    }
}

/// GCM seal and open, and CMAC, at every length 0..=1100 (the AAD length
/// cycling through 0..=36 independently) against the oracle.
fn gcm_and_cmac_against_reference(gcm_key: fn(&Key128) -> GcmKey, cipher: fn(&Key128) -> Aes128) {
    let mut rng = SimRng::seed_from(0xb004);
    let mut data = vec![0u8; 1100];
    rng.fill_bytes(&mut data);
    for len in 0..=1100usize {
        let key: [u8; 16] = rand_array(&mut rng);
        let nonce: [u8; 12] = rand_array(&mut rng);
        let (aad, msg) = (&data[1100 - len % 37..], &data[..len]);
        let (k, n) = (Key128::from_bytes(key), Nonce12::from_bytes(nonce));
        let keyed = gcm_key(&k);
        let sealed = keyed.seal(&n, aad, msg);
        assert_eq!(
            sealed,
            reference::gcm_seal(&key, &nonce, aad, msg),
            "gcm len {len}"
        );
        assert_eq!(keyed.open(&n, aad, &sealed).unwrap(), msg, "len {len}");
        assert_eq!(
            cmac::mac_with(&cipher(&k), msg).as_bytes(),
            &reference::cmac(&key, msg),
            "cmac len {len}"
        );
    }
}

#[test]
fn gcm_and_cmac_kernels_agree_at_every_length() {
    gcm_and_cmac_against_reference(GcmKey::portable, Aes128::portable);
    #[cfg(target_arch = "x86_64")]
    {
        let aesni = hardware(AesNi::detect(), "aes");
        let clmul = hardware(Clmul::detect(), "pclmulqdq or ssse3");
        if aesni.is_none() || clmul.is_none() {
            return;
        }
        // With both instructions present, `new` is the hardware pair.
        gcm_and_cmac_against_reference(GcmKey::new, Aes128::new);
    }
}

/// The keystream XORed into zeros at every length 0..=2100, from block
/// counters 0, 2³² − 7 (the carry into word 9 lands inside a sixteen-block
/// group and inside a four-block one) and u64::MAX − 9 (the counter wraps
/// inside each).
fn salsa20_outputs(xor: impl Fn(&Key256, &Nonce8, u64, &mut [u8])) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seed_from(0xb005);
    let mut out = Vec::new();
    for counter in [0, (1u64 << 32) - 7, u64::MAX - 9] {
        let key = Key256::from_bytes(rand_array(&mut rng));
        let nonce = Nonce8::from_bytes(rand_array(&mut rng));
        for len in 0..=2100usize {
            let mut data = vec![0u8; len];
            xor(&key, &nonce, counter, &mut data);
            out.push(data);
        }
    }
    out
}

/// [`salsa20_outputs`] of a wide kernel, which does the whole `group`-byte
/// groups and hands back the rest, finished here on the portable kernel.
#[cfg(target_arch = "x86_64")]
fn wide_salsa20_outputs(
    group: usize,
    kernel: impl Fn(&Key256, &Nonce8, u64, &mut [u8]) -> usize,
) -> Vec<Vec<u8>> {
    salsa20_outputs(|key, nonce, counter, data| {
        let done = kernel(key, nonce, counter, data);
        assert_eq!(done, data.len() / group * group);
        let rest = counter.wrapping_add(done as u64 / 64);
        salsa20::xor_keystream_portable(key, nonce, rest, &mut data[done..]);
    })
}

#[test]
fn salsa20_kernels_agree_at_every_length_and_counter_wrap() {
    let portable = salsa20_outputs(salsa20::xor_keystream_portable);
    assert!(
        salsa20_outputs(salsa20::xor_keystream) == portable,
        "public and portable keystreams differ"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is in the x86-64 baseline: this tier never skips.
        let sse2 = wide_salsa20_outputs(256, |k, n, c, d| Sse2::detect().salsa20_xor(k, n, c, d));
        assert!(sse2 == portable, "sse2 and portable keystreams differ");
        let Some(avx512) = hardware(Avx512::detect(), "avx512f") else {
            return;
        };
        let avx512 = wide_salsa20_outputs(1024, |k, n, c, d| avx512.salsa20_xor(k, n, c, d));
        assert!(avx512 == portable, "avx512f and portable keystreams differ");
    }
}

/// SHA-256 on `compress`, padding spelled out (FIPS 180-4 §5.1.1).
fn digest_with(compress: &impl Fn(&mut [u32; 8], &[u8]), msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % BLOCK_LEN != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = sha256::H0;
    compress(&mut state, &padded);
    let mut out = [0u8; DIGEST_LEN];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// The FIPS 180-4 and RFC 4231 (cases 1 and 2) vectors on `compress`, and
/// its digests of every length 0..=300.
fn sha256_outputs(compress: impl Fn(&mut [u32; 8], &[u8])) -> Vec<[u8; DIGEST_LEN]> {
    let vectors: [(&[u8], &str); 3] = [
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (msg, digest) in vectors {
        assert_eq!(digest_with(&compress, msg).to_vec(), h2b(digest));
    }
    let hmac = |key: &[u8], msg: &[u8]| {
        let mut k = [0u8; BLOCK_LEN];
        k[..key.len()].copy_from_slice(key);
        let inner = [k.map(|b| b ^ 0x36).as_slice(), msg].concat();
        let inner = digest_with(&compress, &inner);
        digest_with(
            &compress,
            &[k.map(|b| b ^ 0x5c).as_slice(), &inner].concat(),
        )
    };
    assert_eq!(
        hmac(&[0x0b; 20], b"Hi There").to_vec(),
        h2b("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    );
    assert_eq!(
        hmac(b"Jefe", b"what do ya want for nothing?").to_vec(),
        h2b("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    );
    let msg: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
    (0..=300)
        .map(|len| digest_with(&compress, &msg[..len]))
        .collect()
}

#[test]
fn sha256_kernels_agree() {
    let portable = sha256_outputs(sha256::compress_portable);
    #[cfg(target_arch = "x86_64")]
    {
        let Some(sha) = hardware(ShaNi::detect(), "sha, ssse3 or sse4.1") else {
            return;
        };
        assert_eq!(
            sha256_outputs(|state, blocks| sha.compress(state, blocks)),
            portable
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    drop(portable);
}
