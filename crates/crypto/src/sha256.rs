//! SHA-256 (FIPS 180-4).
//!
//! Used by the ShieldStore baseline's Merkle tree of bucket MACs, the
//! server's mutation digest, the journal and the attestation model's key
//! derivation ([`crate::hmac`]).
//!
//! Two compression kernels: the SHA extensions (`crate::x86`) where the CPU
//! has them, and the portable one below everywhere else. A [`Sha256`]
//! probes once, when it is created, and keeps the answer; the digest is the
//! same either way.
//!
//! A hasher holds back up to two blocks of input as the message's tail. A
//! short message — an HMAC's or a MAC chain's, after the keyed pad block —
//! is therefore never compressed piecemeal: [`Sha256::finish`] lays the
//! tail out with its padding and length in place and compresses it, one to
//! three blocks, in one kernel call.

#[cfg(target_arch = "x86_64")]
use crate::x86::ShaNi;

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// The round constants (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Input a hasher holds back as the tail: two blocks.
const TAIL: usize = 2 * BLOCK_LEN;

/// The compression kernel a hasher runs on, probed once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(ShaNi),
}

impl Kernel {
    /// The SHA extensions when the CPU has them, the portable kernel
    /// otherwise.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha) = ShaNi::detect() {
            return Kernel::ShaNi(sha);
        }
        Kernel::Portable
    }

    /// Compresses `blocks` (whole blocks) into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            Kernel::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(sha) => sha.compress(state, blocks),
        }
    }

    /// The digest of a message of `total` bytes whose last `len` bytes
    /// open `tail` (zero past them, with room for the padding) and whose
    /// earlier blocks are compressed into `state`. After the tail come
    /// 0x80, zeros to 56 mod 64 and the message length in bits,
    /// big-endian — one to three blocks, one kernel call.
    #[inline]
    fn finish(
        self,
        mut state: [u32; 8],
        tail: &mut [u8],
        len: usize,
        total: u64,
    ) -> [u8; DIGEST_LEN] {
        let end = (len + 1 + 8).div_ceil(BLOCK_LEN) * BLOCK_LEN;
        tail[len] = 0x80;
        tail[end - 8..end].copy_from_slice(&total.wrapping_mul(8).to_be_bytes());
        self.compress(&mut state, &tail[..end]);
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// A streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use precursor_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finish(), precursor_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sha256 {
    state: [u32; 8],
    kernel: Kernel,
    // The tail: at most `TAIL` bytes not yet compressed, plus room for the
    // padding and length `finish` lays out after them. Zero past
    // `tail_len`, so the padding needs no zeroing.
    tail: [u8; TAIL + BLOCK_LEN],
    tail_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256::on(Kernel::detect())
    }

    /// A fresh hasher on the portable kernel, whatever the CPU: what the
    /// hardware one is tested against.
    #[cfg(test)]
    pub(crate) fn portable() -> Sha256 {
        Sha256::on(Kernel::Portable)
    }

    fn on(kernel: Kernel) -> Sha256 {
        Sha256 {
            state: H0,
            kernel,
            tail: [0; TAIL + BLOCK_LEN],
            tail_len: 0,
            total_len: 0,
        }
    }

    /// The midstate of this hasher's kernel after one `block`: an HMAC's,
    /// the pad block every message under the key starts from.
    pub(crate) fn midstate(&self, block: &[u8; BLOCK_LEN]) -> Midstate {
        let mut state = H0;
        self.kernel.compress(&mut state, block);
        Midstate {
            state,
            kernel: self.kernel,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.tail_len + data.len() <= TAIL {
            self.hold(data);
            return;
        }
        // The message runs on past the tail: top the tail up to its two
        // blocks and compress it, then the input's whole blocks, and hold
        // back the rest.
        if self.tail_len > 0 {
            let take = TAIL - self.tail_len;
            self.hold(&data[..take]);
            data = &data[take..];
            self.kernel.compress(&mut self.state, &self.tail[..TAIL]);
            self.tail[..TAIL].fill(0);
        }
        let whole = data.len() / BLOCK_LEN * BLOCK_LEN;
        self.kernel.compress(&mut self.state, &data[..whole]);
        self.tail_len = 0;
        self.hold(&data[whole..]);
    }

    /// Finalizes and returns the digest.
    pub fn finish(mut self) -> [u8; DIGEST_LEN] {
        let (len, total) = (self.tail_len, self.total_len);
        self.kernel.finish(self.state, &mut self.tail, len, total)
    }

    // Appends `data` to the tail.
    fn hold(&mut self, data: &[u8]) {
        self.tail[self.tail_len..self.tail_len + data.len()].copy_from_slice(data);
        self.tail_len += data.len();
    }
}

/// A hasher's state after whole blocks, on the kernel it was probed for:
/// what an HMAC key keeps of each of its two pads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Midstate {
    state: [u32; 8],
    kernel: Kernel,
}

impl Midstate {
    /// The digest of this midstate's block followed by `digest`: an HMAC's
    /// outer hash, whose message is one digest. Its one padded block is
    /// finished as a hasher's tail is, on the stack, without the hasher
    /// (whose tail buffer [`resume`](Self::resume) would fill and zero).
    pub(crate) fn finish_digest(&self, digest: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(digest);
        let total = (BLOCK_LEN + DIGEST_LEN) as u64;
        self.kernel
            .finish(self.state, &mut block, DIGEST_LEN, total)
    }

    /// A hasher that continues from this midstate after one block, with
    /// nothing held back.
    pub(crate) fn resume(&self) -> Sha256 {
        Sha256 {
            state: self.state,
            total_len: BLOCK_LEN as u64,
            ..Sha256::on(self.kernel)
        }
    }
}

/// The portable kernel: FIPS 180-4 §6.2.2, one block at a time.
pub(crate) fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress_block(
            state,
            block.try_into().expect("chunks_exact yields a block"),
        );
    }
}

fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, wi) in w.iter_mut().take(16).enumerate() {
        *wi = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0..200u8).collect();
        let expected = digest(&msg);
        for split in 0..=msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finish(), expected, "split at {split}");
        }
    }

    #[test]
    fn long_input_crossing_many_blocks() {
        let msg = vec![0x61u8; 1_000_000]; // one million 'a' — known NIST vector
        assert_eq!(
            hex(&digest(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn length_boundary_padding() {
        // Every buffer fill around the 55/56 and 63/64 boundaries, against
        // the padding of FIPS 180-4 §5.1.1 spelled out byte by byte.
        for len in 0..=130usize {
            let msg: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            let mut padded = msg.clone();
            padded.push(0x80);
            while padded.len() % BLOCK_LEN != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut state = Sha256::new().state;
            compress_portable(&mut state, &padded);
            let expected: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(digest(&msg)[..], expected[..], "len {len}");
        }
    }
}
