//! Properties:
//!
//! - the in-process fabric, bare (`LocalFabric`) and as the shared-memory
//!   tier (`ShmFabric`), runs ring reduce-scatter, all-gather and
//!   all-reduce **bit-identically** to a single-threaded reference that
//!   replays the ring's chunk schedule and accumulation order, for every
//!   wire dtype;
//! - the two-tier transport is bit-identical to `LocalFabric` for every
//!   collective algorithm and every wire dtype.
//!
//! Routing a message through a queue (or splitting one collective's
//! traffic across shm and TCP tiers mid-algorithm) must be a pure
//! transport concern — zero numerical footprint, no reordering, no stray
//! frames leaking into the next collective.

use std::time::Duration;

use dear_collectives::{
    chunk_range, double_tree_all_reduce_seg, hierarchical_all_reduce_seg, naive_all_reduce_seg,
    rhd_all_reduce_seg, ring_all_gather_seg, ring_all_reduce_seg, ring_owned_chunk,
    ring_reduce_scatter_seg, round_to_wire, ClusterShape, DType, LocalFabric, ReduceOp,
    SegmentConfig, Transport,
};
use dear_net::{tiered_loopback_with, ShmFabric};
use proptest::prelude::*;

/// Per-rank deterministic pseudo-random data, adversarial bit patterns
/// included via the salt multiply.
fn rank_data(rank: usize, d: usize, salt: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let x = (rank as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(salt | 1);
            ((x % 4096) as f32 - 2048.0) / 32.0
        })
        .collect()
}

/// Runs `f` on every rank of a fabric, one thread per rank.
fn run_ranks<T, R, F>(endpoints: Vec<T>, f: F) -> Vec<R>
where
    T: Transport + Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints.iter().map(|ep| s.spawn(|| f(ep))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// All five all-reduce families, back to back on the same endpoints: ring,
/// recursive halving-doubling, double binary tree, naive (reduce +
/// broadcast), and hierarchical. Reusing one fabric across all of them
/// also proves no collective leaves stray frames behind.
fn all_five<T: Transport>(t: &T, d: usize, salt: u64, seg: SegmentConfig) -> Vec<Vec<f32>> {
    let world = t.world_size();
    let mut outs = Vec::new();
    let mut data = rank_data(t.rank(), d, salt);
    ring_all_reduce_seg(t, &mut data, ReduceOp::Sum, seg).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    rhd_all_reduce_seg(t, &mut data, ReduceOp::Sum, seg).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    double_tree_all_reduce_seg(t, &mut data, ReduceOp::Sum, seg).unwrap();
    outs.push(data);
    let mut data = rank_data(t.rank(), d, salt);
    naive_all_reduce_seg(t, &mut data, ReduceOp::Sum, seg).unwrap();
    outs.push(data);
    let nodes = (2..=world).find(|n| world.is_multiple_of(*n)).unwrap_or(1);
    let shape = ClusterShape::new(nodes, world / nodes);
    let mut data = rank_data(t.rank(), d, salt);
    hierarchical_all_reduce_seg(t, shape, &mut data, ReduceOp::Sum, seg).unwrap();
    outs.push(data);
    outs
}

/// One step of the single-threaded ring reference: every rank `i` sends
/// chunk `chunk_of(i)` to rank `i + 1` at once (SNIPPETS.md §1). A sender
/// first rounds its chunk in place to the wire dtype, exactly as
/// `send_segmented` does, and the receiver folds the payload in with `land`.
fn reference_ring_step(
    bufs: &mut [Vec<f32>],
    wire: DType,
    chunk_of: impl Fn(usize) -> usize,
    land: impl Fn(&mut f32, f32),
) {
    let p = bufs.len();
    let d = bufs[0].len();
    let sent: Vec<(std::ops::Range<usize>, Vec<f32>)> = (0..p)
        .map(|i| {
            let r = chunk_range(d, p, chunk_of(i));
            round_to_wire(&mut bufs[i][r.clone()], wire);
            (r.clone(), bufs[i][r].to_vec())
        })
        .collect();
    for (i, (r, payload)) in sent.into_iter().enumerate() {
        for (x, y) in bufs[(i + 1) % p][r].iter_mut().zip(payload) {
            land(x, y);
        }
    }
}

/// Ring reduce-scatter over all ranks' buffers: in step `s` rank `i` sends
/// chunk `(i − s) mod p` and the receiver accumulates `dst = op(dst, x)`.
fn reference_reduce_scatter(bufs: &mut [Vec<f32>], op: ReduceOp, wire: DType) {
    let p = bufs.len();
    for step in 0..p.saturating_sub(1) {
        reference_ring_step(
            bufs,
            wire,
            |i| (i + p - step) % p,
            |x, y| *x = op.combine(*x, y),
        );
    }
}

/// Ring all-gather: rank `i` starts from its owned chunk `(i + 1) mod p`
/// and forwards, in step `s`, chunk `(owned − s) mod p`; receivers copy.
fn reference_all_gather(bufs: &mut [Vec<f32>], wire: DType) {
    let p = bufs.len();
    for step in 0..p.saturating_sub(1) {
        let chunk_of = |i| (ring_owned_chunk(i, p) + p - step) % p;
        reference_ring_step(bufs, wire, chunk_of, |x, y| *x = y);
    }
}

/// Ring RS, AG and AR on one rank, each from fresh data.
fn ring_three<T: Transport>(
    t: &T,
    d: usize,
    salt: u64,
    op: ReduceOp,
    seg: SegmentConfig,
) -> Vec<Vec<f32>> {
    let (rank, world) = (t.rank(), t.world_size());
    let mut rs = rank_data(rank, d, salt);
    ring_reduce_scatter_seg(t, &mut rs, op, seg).unwrap();
    let mut ag = rank_data(rank, d, salt);
    ring_all_gather_seg(t, &mut ag, ring_owned_chunk(rank, world), seg).unwrap();
    let mut ar = rank_data(rank, d, salt);
    ring_all_reduce_seg(t, &mut ar, op, seg).unwrap();
    vec![rs, ag, ar]
}

/// The reference counterpart of [`ring_three`], for every rank at once.
fn reference_three(
    world: usize,
    d: usize,
    salt: u64,
    op: ReduceOp,
    wire: DType,
) -> Vec<Vec<Vec<f32>>> {
    let fresh = || {
        (0..world)
            .map(|r| rank_data(r, d, salt))
            .collect::<Vec<_>>()
    };
    let mut rs = fresh();
    reference_reduce_scatter(&mut rs, op, wire);
    let mut ag = fresh();
    reference_all_gather(&mut ag, wire);
    let mut ar = fresh();
    reference_reduce_scatter(&mut ar, op, wire);
    reference_all_gather(&mut ar, wire);
    (0..world)
        .map(|r| vec![rs[r].clone(), ag[r].clone(), ar[r].clone()])
        .collect()
}

fn assert_bit_identical(
    expected: &[Vec<Vec<f32>>],
    other: &[Vec<Vec<f32>>],
    transport: &str,
) -> Result<(), String> {
    prop_assert_eq!(expected.len(), other.len());
    for (rank, (l, o)) in expected.iter().zip(other).enumerate() {
        for (algo, (lv, ov)) in l.iter().zip(o).enumerate() {
            prop_assert_eq!(lv.len(), ov.len());
            for (i, (a, b)) in lv.iter().zip(ov).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} algo {} elem {}: expected {} != {} {}",
                    rank,
                    algo,
                    i,
                    a,
                    transport,
                    b
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // Shm cases are cheap (no sockets); tiered cases build a real TCP
    // mesh per case, so keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn in_process_ring_is_bit_identical_to_sequential_reference(
        world in 1usize..7,
        d in 0usize..300,
        max_segment_bytes in 0usize..128,
        salt in any::<u64>(),
        wire_idx in 0usize..3,
        op_idx in 0usize..4,
    ) {
        let wire = [DType::F32, DType::Bf16, DType::F16][wire_idx];
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][op_idx];
        let seg = SegmentConfig::new(max_segment_bytes).with_wire(wire);
        let reference = reference_three(world, d, salt, op, wire);
        let local = run_ranks(LocalFabric::create(world), |ep| ring_three(ep, d, salt, op, seg));
        assert_bit_identical(&reference, &local, "local")?;
        let shm = run_ranks(ShmFabric::create(world), |ep| ring_three(ep, d, salt, op, seg));
        assert_bit_identical(&reference, &shm, "shm")?;
    }

    #[test]
    fn tiered_is_bit_identical_to_local_fabric(
        hosts in 1usize..3,
        ranks_per_host in 1usize..3,
        d in 0usize..200,
        max_segment_bytes in 0usize..96,
        salt in any::<u64>(),
        wire_idx in 0usize..3,
    ) {
        // Every collective here spans both tiers at once: intra-host hops
        // ride the shm queues while inter-host hops ride real sockets, and
        // the result must still land bit-for-bit on LocalFabric's answer.
        let wire = [DType::F32, DType::Bf16, DType::F16][wire_idx];
        let seg = SegmentConfig::new(max_segment_bytes).with_wire(wire);
        let world = hosts * ranks_per_host;
        let local = run_ranks(LocalFabric::create(world), |ep| {
            all_five(ep, d, salt, seg)
        });
        let tiered_eps = tiered_loopback_with(hosts, ranks_per_host, |mut cfg| {
            cfg.recv_timeout = Some(Duration::from_secs(60)); // hang guard
            cfg
        })
        .unwrap();
        let tiered = run_ranks(tiered_eps, |ep| all_five(ep, d, salt, seg));
        assert_bit_identical(&local, &tiered, "tiered")?;
    }
}
