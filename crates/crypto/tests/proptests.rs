//! Property-based tests over the crypto primitives, driven by the in-repo
//! deterministic RNG (seeded loops instead of an external proptest engine).

use precursor_crypto::aes::{self, Aes128};
use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::{Key128, Key256, Nonce12, Nonce8, Tag};
use precursor_crypto::{cmac, ct::ct_eq, gcm, hmac::hmac_sha256, salsa20, sha256};
use precursor_sim::rng::SimRng;

/// The byte-oriented AES round and bit-serial GF(2¹²⁸) multiplication the
/// table-driven kernels replaced; the crate compiles it under `cfg(test)`.
#[path = "../src/reference.rs"]
mod reference;

const CASES: usize = 64;

fn rand_array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut b = [0u8; N];
    rng.fill_bytes(&mut b);
    b
}

fn rand_vec(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(max_len as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn aes_is_a_permutation() {
    let mut rng = SimRng::seed_from(0xa002);
    for _ in 0..CASES {
        let c = Aes128::new(&Key128::from_bytes(rand_array(&mut rng)));
        let a: [u8; 16] = rand_array(&mut rng);
        let b: [u8; 16] = rand_array(&mut rng);
        assert_eq!(a == b, c.encrypt_block(a) == c.encrypt_block(b));
    }
}

#[test]
fn table_aes_matches_byte_oriented_reference() {
    let mut rng = SimRng::seed_from(0xa00c);
    for _ in 0..CASES * 8 {
        let key: [u8; 16] = rand_array(&mut rng);
        let block: [u8; 16] = rand_array(&mut rng);
        assert_eq!(
            Aes128::new(&Key128::from_bytes(key)).encrypt_block(block),
            reference::encrypt_block(&key, block)
        );
    }
}

#[test]
fn table_ghash_matches_bit_serial_reference() {
    let check = |h: u128, aad: &[u8], x: &[u8]| {
        assert_eq!(
            u128::from_be_bytes(gcm::ghash(&h.to_be_bytes(), aad, x)),
            reference::ghash(h, aad, x),
            "h {h:#034x} aad {} x {}",
            aad.len(),
            x.len()
        );
    };
    let mut rng = SimRng::seed_from(0xa00d);
    // One block, so the answer is ((X·H) ^ len)·H: every single-bit X and
    // every single-bit H walks each table entry and each shift position.
    for bit in 0..128 {
        let random = u128::from_be_bytes(rand_array(&mut rng));
        check(random, &[], &(1u128 << bit).to_be_bytes());
        check(1u128 << bit, &[], &random.to_be_bytes());
    }
    check(u128::MAX, &[], &u128::MAX.to_be_bytes());
    for _ in 0..CASES * 4 {
        let h = u128::from_be_bytes(rand_array(&mut rng));
        check(h, &rand_vec(&mut rng, 40), &rand_vec(&mut rng, 100));
    }
}

#[test]
fn gcm_and_cmac_match_reference_at_every_length() {
    // 0..=1100 covers every partial-block residue many times over, the
    // empty message, and lengths past 1 KiB; the AAD length cycles through
    // its own residues (0..=36) independently of the message's. Three
    // routes to the same bytes: the bit-serial oracle, the free function,
    // and a `GcmKey` — one built for the length's own key, and one
    // long-lived key that answers every length in turn.
    let mut rng = SimRng::seed_from(0xa00e);
    let mut data = vec![0u8; 1100];
    rng.fill_bytes(&mut data);
    let long_lived = Key128::from_bytes(rand_array(&mut rng));
    let reused = GcmKey::new(&long_lived);
    for len in 0..=1100usize {
        let key: [u8; 16] = rand_array(&mut rng);
        let nonce: [u8; 12] = rand_array(&mut rng);
        let aad = &data[1100 - len % 37..];
        let msg = &data[..len];
        let (k, n) = (Key128::from_bytes(key), Nonce12::from_bytes(nonce));
        let sealed = gcm::seal(&k, &n, aad, msg);
        assert_eq!(
            sealed,
            reference::gcm_seal(&key, &nonce, aad, msg),
            "gcm len {len}"
        );
        let keyed = GcmKey::new(&k);
        assert_eq!(keyed.seal(&n, aad, msg), sealed, "keyed len {len}");
        let mut framed = vec![0xfe];
        keyed.seal_into(&mut framed, &n, aad, msg);
        assert_eq!(framed[1..], sealed[..], "keyed seal_into len {len}");
        assert_eq!(keyed.open(&n, aad, &sealed).unwrap(), msg, "len {len}");
        let (ct, tag) = sealed.split_at(len);
        assert_eq!(keyed.open_detached(&n, aad, ct, tag).unwrap(), msg);
        assert!(keyed.verify_detached(&n, aad, ct, tag), "len {len}");

        let by_reused = reused.seal(&n, aad, msg);
        assert_eq!(
            by_reused,
            gcm::seal(&long_lived, &n, aad, msg),
            "reused len {len}"
        );
        assert_eq!(
            gcm::open(&long_lived, &n, aad, &by_reused).unwrap(),
            reused.open(&n, aad, &by_reused).unwrap()
        );

        assert_eq!(
            cmac::mac(&k, msg).as_bytes(),
            &reference::cmac(&key, msg),
            "cmac len {len}"
        );
    }
}

#[test]
fn gcm_roundtrip() {
    let mut rng = SimRng::seed_from(0xa003);
    for _ in 0..CASES {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let n = Nonce12::from_bytes(rand_array(&mut rng));
        let aad = rand_vec(&mut rng, 63);
        let pt = rand_vec(&mut rng, 511);
        let sealed = gcm::seal(&k, &n, &aad, &pt);
        assert_eq!(sealed.len(), pt.len() + gcm::TAG_LEN);
        assert_eq!(gcm::open(&k, &n, &aad, &sealed).unwrap(), pt);
    }
}

#[test]
fn gcm_detects_any_single_bit_flip() {
    let mut rng = SimRng::seed_from(0xa004);
    for _ in 0..CASES {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let n = Nonce12::from_counter(7);
        let mut pt = rand_vec(&mut rng, 62);
        pt.push(rng.next_u64() as u8); // never empty
        let mut sealed = gcm::seal(&k, &n, b"", &pt);
        let pos = rng.gen_range(sealed.len() as u64) as usize;
        let bit = rng.gen_range(8) as u8;
        sealed[pos] ^= 1 << bit;
        assert!(gcm::open(&k, &n, b"", &sealed).is_err());
    }
}

#[test]
fn cmac_tamper_detection() {
    let mut rng = SimRng::seed_from(0xa005);
    for _ in 0..CASES {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let mut msg = rand_vec(&mut rng, 126);
        msg.push(rng.next_u64() as u8); // never empty
        let tag = cmac::mac(&k, &msg);
        let mut tampered = msg.clone();
        let pos = rng.gen_range(tampered.len() as u64) as usize;
        let bit = rng.gen_range(8) as u8;
        tampered[pos] ^= 1 << bit;
        assert!(!cmac::verify(&k, &tampered, &tag));
        assert!(cmac::verify(&k, &msg, &tag));
    }
}

#[test]
fn salsa20_roundtrip() {
    let mut rng = SimRng::seed_from(0xa006);
    for _ in 0..CASES {
        let k = Key256::from_bytes(rand_array(&mut rng));
        let n = Nonce8::from_bytes(rand_array(&mut rng));
        let data = rand_vec(&mut rng, 1023);
        let ct = salsa20::encrypt(&k, &n, &data);
        assert_eq!(salsa20::decrypt(&k, &n, &ct), data);
    }
}

#[test]
fn salsa20_keystream_seek_consistency() {
    let mut rng = SimRng::seed_from(0xa007);
    for _ in 0..CASES {
        let k = Key256::from_bytes(rand_array(&mut rng));
        let n = Nonce8::from_bytes(rand_array(&mut rng));
        let blocks = 1 + rng.gen_range(7);
        let len = blocks as usize * 64;
        let mut whole = vec![0u8; len + 64];
        salsa20::xor_keystream(&k, &n, 0, &mut whole);
        let mut tail = vec![0u8; 64];
        salsa20::xor_keystream(&k, &n, blocks, &mut tail);
        assert_eq!(&whole[len..], &tail[..]);
    }
}

#[test]
fn sha256_streaming_equals_oneshot() {
    let mut rng = SimRng::seed_from(0xa008);
    for _ in 0..CASES {
        let data = rand_vec(&mut rng, 4095);
        let split = if data.is_empty() {
            0
        } else {
            rng.gen_range(data.len() as u64) as usize
        };
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finish(), sha256::digest(&data));
    }
}

#[test]
fn hmac_distinguishes_keys() {
    let mut rng = SimRng::seed_from(0xa009);
    for _ in 0..CASES {
        let mut k1 = rand_vec(&mut rng, 62);
        k1.push(rng.next_u64() as u8);
        let mut k2 = rand_vec(&mut rng, 62);
        k2.push(rng.next_u64() as u8);
        if k1 == k2 {
            continue;
        }
        let msg = rand_vec(&mut rng, 127);
        assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }
}

#[test]
fn ct_eq_matches_plain_eq() {
    let mut rng = SimRng::seed_from(0xa00a);
    for _ in 0..CASES {
        let a = rand_vec(&mut rng, 63);
        let b = if rng.gen_bool(0.5) {
            a.clone()
        } else {
            rand_vec(&mut rng, 63)
        };
        assert_eq!(ct_eq(&a, &b), a == b);
    }
}

#[test]
fn tag_verify_matches_eq() {
    let mut rng = SimRng::seed_from(0xa00b);
    for _ in 0..CASES {
        let a: [u8; 16] = rand_array(&mut rng);
        let b: [u8; 16] = if rng.gen_bool(0.5) {
            a
        } else {
            rand_array(&mut rng)
        };
        assert_eq!(Tag::from_bytes(a).verify(&Tag::from_bytes(b)), a == b);
    }
}
