//! Property tests of the verbs layer: one-sided WRITEs against a model
//! buffer (dense and page-sparse regions), permission/bounds invariants,
//! selective signaling, and TCP ordering. Driven by seeded loops over the
//! in-repo deterministic RNG.

use precursor_rdma::mr::{Memory, RemoteKey};
use precursor_rdma::qp::{connect_pair, QueuePair, RdmaError};
use precursor_rdma::tcp::SimTcp;
use precursor_sim::rng::SimRng;
use precursor_storage::sparse::SparseBytes;

const CASES: usize = 48;

fn rand_vec(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.gen_range_between(lo as u64, hi as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn writes_and_reads_match_a_model_buffer() {
    let mut rng = SimRng::seed_from(0xd001);
    for case in 0..CASES {
        let cap = 4096usize;
        let (mut client, server) = connect_pair(912);
        // Odd cases run over a page-sparse region of three pages and a bit:
        // the verbs must not tell the layouts apart. Bytes are read back
        // through the registered region, as the host CPU sees them.
        type Reader = Box<dyn Fn(usize, usize) -> Vec<u8>>;
        let (key, cap, read): (_, _, Reader) = if case % 2 == 0 {
            let mem = Memory::zeroed(cap);
            let key = server.register(mem.clone(), true);
            (key, cap, Box::new(move |off, len| mem.read(off, len)))
        } else {
            let cap = 3 * cap + 200;
            let mem = Memory::new(SparseBytes::new(cap));
            let key = server.register(mem.clone(), true);
            (key, cap, Box::new(move |off, len| mem.read(off, len)))
        };
        let mut model = vec![0u8; cap];
        let ops = 1 + rng.gen_range(99) as usize;
        for _ in 0..ops {
            let data = rand_vec(&mut rng, 1, 263);
            let off = rng.gen_range((cap - data.len()) as u64) as usize;
            client.post_write(key, off, &data, false).unwrap();
            model[off..off + data.len()].copy_from_slice(&data);
            assert_eq!(read(off, data.len()), &model[off..off + data.len()]);
        }
        assert_eq!(read(0, cap), model);
    }
}

#[test]
fn out_of_bounds_never_corrupts() {
    let mut rng = SimRng::seed_from(0xd002);
    for _ in 0..CASES {
        let cap = 1024usize;
        let (mut client, server) = connect_pair(912);
        let mem = Memory::zeroed(cap);
        let key = server.register(mem.clone(), true);
        let len = 1 + rng.gen_range(127) as usize;
        let off = rng.gen_range(2 * cap as u64) as usize;
        let data = vec![0xAAu8; len];
        match client.post_write(key, off, &data, false) {
            Ok(_) => assert!(off + len <= cap),
            Err(RdmaError::OutOfBounds) => {
                assert!(off + len > cap);
                // nothing was written
                assert!(mem.read(0, cap).iter().all(|&b| b == 0));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    // Offsets whose `offset + len` overflows: refused, never a panic
    // (debug) or a sum wrapped back into range (release) — on a dense and
    // on a page-sparse region.
    let (mut client, server) = connect_pair(912);
    let dense = Memory::zeroed(1024);
    let sparse = Memory::new(SparseBytes::new(3 * 4096));
    let keys = [
        server.register(dense.clone(), true),
        server.register(sparse.clone(), true),
    ];
    for key in keys {
        for offset in usize::MAX - 64..=usize::MAX {
            refused_everywhere(&mut client, key, offset);
        }
    }
    assert!(dense.read(0, 1024).iter().all(|&b| b == 0));
    assert_eq!(sparse.resident_bytes(), 0, "nothing was written");
    assert_eq!(client.stats().posts, 0, "a refused verb posts nothing");
}

// A WRITE at `offset` is refused as out of bounds, and a SEND the peer
// posted no RECV for is refused as not ready: neither posts.
fn refused_everywhere(client: &mut QueuePair, key: RemoteKey, offset: usize) {
    let oob = RdmaError::OutOfBounds;
    assert_eq!(client.post_write(key, offset, &[1; 4], false), Err(oob));
    assert_eq!(
        client.post_send(&[1; 4], false),
        Err(RdmaError::ReceiverNotReady)
    );
}

#[test]
fn tcp_preserves_order_and_content() {
    let mut rng = SimRng::seed_from(0xd004);
    for _ in 0..CASES {
        let (mut a, mut b) = SimTcp::pair();
        let n = 1 + rng.gen_range(49) as usize;
        let msgs: Vec<Vec<u8>> = (0..n).map(|_| rand_vec(&mut rng, 0, 63)).collect();
        for m in &msgs {
            assert!(a.send(m));
        }
        for m in &msgs {
            assert_eq!(&b.recv().unwrap(), m);
        }
        assert!(b.recv().is_none());
    }
}

#[test]
fn selective_signaling_counts_exactly() {
    let mut rng = SimRng::seed_from(0xd005);
    for _ in 0..CASES {
        let (mut client, server) = connect_pair(912);
        let key = server.register(Memory::zeroed(4096), true);
        let n = 1 + rng.gen_range(99) as usize;
        let interval = 1 + rng.gen_range(9) as usize;
        for i in 0..n {
            client.post_write(key, 0, &[1], i % interval == 0).unwrap();
        }
        let completions = client.poll_cq(n + 1);
        assert_eq!(completions.len(), n.div_ceil(interval));
    }
}
