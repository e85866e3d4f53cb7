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
use crate::gcm::{self, GcmKey, Ghash};
use crate::hmac::HmacSha256;
use crate::keys::{Key128, Key256, Nonce12, Nonce8};
use crate::reference;
use crate::salsa20;
use crate::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN};
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
        aes_against_reference(|k| aesni.expand(k).0, |rk, b| aesni.encrypt_block(rk, b));
        // The zero block, encrypted alongside the schedule.
        let mut rng = SimRng::seed_from(0xb006);
        for _ in 0..64 {
            let key: [u8; 16] = rand_array(&mut rng);
            assert_eq!(
                aesni.expand(&key).1,
                reference::encrypt_block(&key, [0; 16])
            );
        }
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
        ctr_against_reference(|k, j0, d| aesni.ctr32_xor(&aesni.expand(k.as_bytes()).0, j0, d));
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
        ghash_against_reference(|h, aad, x| clmul.ghash(&clmul.powers(h), aad, x));
    }
}

/// Lengths of zero to nine blocks, and each partial length in between that
/// a block boundary can fall short of or overrun: 0, 1, 15, 16, 17, …, 144.
fn block_lengths() -> impl Iterator<Item = usize> {
    (0..=9usize)
        .flat_map(|b| [16 * b, 16 * b + 1, 16 * b + 15])
        .filter(|&len| len <= 144)
}

#[test]
fn ghash_on_key_powers_matches_shoup_and_the_oracle_at_every_block_pair() {
    // Every (AAD, text) pair of lengths from zero to nine blocks, partial
    // blocks included: each eight-block fold starts and ends on every
    // block of either part and of the lengths block. The same key's powers
    // answer every pair.
    let mut rng = SimRng::seed_from(0xb007);
    let h = u128::from_be_bytes(rand_array(&mut rng));
    let shoup = Ghash::portable(h);
    let mut data = vec![0u8; 2 * 144];
    rng.fill_bytes(&mut data);
    let (aad_bytes, ct_bytes) = data.split_at(144);
    #[cfg(target_arch = "x86_64")]
    let clmul = hardware(Clmul::detect(), "pclmulqdq or ssse3").map(|c| (c, c.powers(h)));
    for aad_len in block_lengths() {
        for ct_len in block_lengths() {
            let (aad, ct) = (&aad_bytes[..aad_len], &ct_bytes[..ct_len]);
            let expected = reference::ghash(h, aad, ct);
            assert_eq!(shoup.ghash(aad, ct), expected, "shoup {aad_len}/{ct_len}");
            #[cfg(target_arch = "x86_64")]
            if let Some((clmul, powers)) = &clmul {
                assert_eq!(
                    clmul.ghash(powers, aad, ct),
                    expected,
                    "clmul {aad_len}/{ct_len}"
                );
            }
        }
    }
}

#[test]
fn one_shot_seal_and_open_are_the_keyed_path() {
    // The free functions build a key per call: their bytes are the bytes
    // of a key built once (and of the portable kernels), for every block
    // pair of lengths.
    let mut rng = SimRng::seed_from(0xb008);
    let k = Key128::from_bytes(rand_array(&mut rng));
    let (keyed, portable) = (GcmKey::new(&k), GcmKey::portable(&k));
    let mut data = vec![0u8; 2 * 144];
    rng.fill_bytes(&mut data);
    for (i, aad_len) in block_lengths().enumerate() {
        for ct_len in block_lengths() {
            let n = Nonce12::from_counter((i * 1000 + ct_len) as u64);
            let (aad, pt) = (&data[..aad_len], &data[144..144 + ct_len]);
            let sealed = gcm::seal(&k, &n, aad, pt);
            assert_eq!(sealed, keyed.seal(&n, aad, pt), "{aad_len}/{ct_len}");
            assert_eq!(sealed, portable.seal(&n, aad, pt), "{aad_len}/{ct_len}");
            let mut framed = b"hdr".to_vec();
            gcm::seal_into(&mut framed, &k, &n, aad, pt);
            assert_eq!(framed[3..], sealed[..]);
            assert_eq!(gcm::open(&k, &n, aad, &sealed).unwrap(), pt);
            assert_eq!(keyed.open(&n, aad, &sealed).unwrap(), pt);
            let (ct, tag) = sealed.split_at(ct_len);
            assert_eq!(gcm::open_detached(&k, &n, aad, ct, tag).unwrap(), pt);
            let mut buf = ct.to_vec();
            keyed
                .open_in_place_detached(&n, aad, &mut buf, tag)
                .unwrap();
            assert_eq!(buf, pt);
        }
    }
}

/// HMAC-SHA-256 of `msg`, its key pads and message fed to `fresh` hashers
/// one byte at a time.
fn hmac_byte_stream(fresh: impl Fn() -> Sha256, key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        k[..DIGEST_LEN].copy_from_slice(&sha256::digest(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let stream = |pad: u8, msg: &[u8]| {
        let mut h = fresh();
        for b in k.iter().map(|b| b ^ pad).chain(msg.iter().copied()) {
            h.update(&[b]);
        }
        h.finish()
    };
    stream(0x5c, &stream(0x36, msg))
}

/// RFC 4231 test cases 1–4, 6 and 7, then every message length 0..=160
/// (crossing the 55/56-byte one-block tail, the 64-byte block, the
/// 119/120-byte two-block tail and the 128-byte held-back tail) in one,
/// two and three parts, against the byte-at-a-time stream.
fn hmac_against_vectors_and_stream(
    keyed: impl Fn(&[u8]) -> HmacSha256,
    fresh: impl Fn() -> Sha256,
) {
    let long_key = [0xaau8; 131];
    let vectors: [(&[u8], &[u8], &str); 6] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &[
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                24, 25,
            ],
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            &long_key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &long_key,
            b"This is a test using a larger than block-size key and a larger than block-size \
              data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (key, msg, mac) in vectors {
        assert_eq!(keyed(key).mac(&[msg]).to_vec(), h2b(mac));
        assert_eq!(hmac_byte_stream(&fresh, key, msg).to_vec(), h2b(mac));
    }
    let mut rng = SimRng::seed_from(0xb009);
    let key: [u8; 16] = rand_array(&mut rng);
    let ctx = keyed(&key);
    let mut msg = vec![0u8; 160];
    rng.fill_bytes(&mut msg);
    for len in 0..=160usize {
        let msg = &msg[..len];
        let expected = hmac_byte_stream(&fresh, &key, msg);
        assert_eq!(ctx.mac(&[msg]), expected, "len {len}");
        for cut in [0, 1, len / 3, len / 2, 55, 56, 64, 119, 120] {
            let a = cut.min(len);
            let b = (a + len.saturating_sub(a) / 2 + 7).min(len);
            assert_eq!(ctx.mac(&[&msg[..a], &msg[a..]]), expected, "{len} at {a}");
            assert_eq!(
                ctx.mac(&[&msg[..a], &msg[a..b], &msg[b..]]),
                expected,
                "{len} at {a} and {b}"
            );
        }
    }
}

#[test]
fn hmac_kernels_agree_with_rfc4231_and_a_byte_stream() {
    hmac_against_vectors_and_stream(HmacSha256::portable, Sha256::portable);
    #[cfg(target_arch = "x86_64")]
    {
        if hardware(ShaNi::detect(), "sha, ssse3 or sse4.1").is_none() {
            return;
        }
        // With the extensions present, `new` is the hardware kernel.
        hmac_against_vectors_and_stream(HmacSha256::new, Sha256::new);
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
