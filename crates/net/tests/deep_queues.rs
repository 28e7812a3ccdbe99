//! Regression: one ring step may queue far more messages than the peer has
//! received yet. With 4-byte segments over 1200 elements, every ring step
//! of a 2-rank world sends 600 messages before its first receive, and
//! both ranks do so at once. A transport whose per-pair buffer is bounded
//! (say 128 messages) and whose send waits for room deadlocks here until
//! its send deadline fires. Every transport must complete ring RS, AG and
//! AR with the exact sums instead.

use std::time::Duration;

use dear_collectives::{
    ring_all_gather_seg, ring_all_reduce_seg, ring_owned_chunk, ring_reduce_scatter_seg, DType,
    LocalFabric, ReduceOp, SegmentConfig, Transport,
};
use dear_net::{tcp_loopback, tiered_loopback_with, ShmFabric};

const ELEMS: usize = 1200;

/// One f32 element per message.
const SEG: SegmentConfig = SegmentConfig {
    max_segment_bytes: 4,
    wire: DType::F32,
};

/// Small integers, so every sum is exact in f32.
fn rank_data(rank: usize) -> Vec<f32> {
    (0..ELEMS).map(|i| (rank * ELEMS + i) as f32).collect()
}

/// Runs RS, then AG from the reduced shard, then a fresh AR on every rank
/// and checks each against the analytic sum.
fn ring_steps_complete<T: Transport + Send + Sync>(eps: Vec<T>) {
    let world = eps.len();
    let expected: Vec<f32> = (0..ELEMS)
        .map(|i| (0..world).map(|r| (r * ELEMS + i) as f32).sum())
        .collect();
    std::thread::scope(|s| {
        for ep in &eps {
            let expected = &expected;
            s.spawn(move || {
                let rank = ep.rank();
                let mut data = rank_data(rank);
                let owned = ring_reduce_scatter_seg(ep, &mut data, ReduceOp::Sum, SEG)
                    .unwrap_or_else(|e| panic!("rank {rank}/{world}: RS failed: {e}"));
                assert_eq!(data[owned.clone()], expected[owned], "RS, world {world}");
                ring_all_gather_seg(ep, &mut data, ring_owned_chunk(rank, world), SEG)
                    .unwrap_or_else(|e| panic!("rank {rank}/{world}: AG failed: {e}"));
                assert_eq!(&data, expected, "AG, world {world}");
                let mut data = rank_data(rank);
                ring_all_reduce_seg(ep, &mut data, ReduceOp::Sum, SEG)
                    .unwrap_or_else(|e| panic!("rank {rank}/{world}: AR failed: {e}"));
                assert_eq!(&data, expected, "AR, world {world}");
            });
        }
    });
}

#[test]
fn local_fabric_completes_ring_steps_of_hundreds_of_messages() {
    for world in [2, 3] {
        ring_steps_complete(LocalFabric::create(world));
    }
}

#[test]
fn shm_fabric_completes_ring_steps_of_hundreds_of_messages() {
    for world in [2, 3] {
        ring_steps_complete(ShmFabric::create(world));
    }
}

#[test]
fn tcp_loopback_completes_ring_steps_of_hundreds_of_messages() {
    for world in [2, 3] {
        ring_steps_complete(tcp_loopback(world).unwrap());
    }
}

#[test]
fn tiered_loopback_completes_ring_steps_of_hundreds_of_messages() {
    // All-shm worlds of 2 and 3 ranks, then 2 hosts × 2 ranks so one
    // ring mixes both tiers.
    for (hosts, ranks_per_host) in [(1, 2), (1, 3), (2, 2)] {
        let eps = tiered_loopback_with(hosts, ranks_per_host, |cfg| {
            cfg.with_recv_timeout(Some(Duration::from_secs(60)))
        })
        .unwrap();
        ring_steps_complete(eps);
    }
}
