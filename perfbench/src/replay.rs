//! Layer replay: each layer of the data path timed alone at the sizes one
//! workload uses — its fusion groups, its segment size and wire dtype, on
//! a fresh pair of its own transport kind.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use dear_collectives::{
    ring_all_gather_seg, ring_all_reduce_seg, ring_owned_chunk, ring_reduce_scatter_seg, simd,
    CostModel, DType, DelayFabric, LocalEndpoint, ReduceOp, SegmentConfig, Transport, WireBuf,
};
use dear_core::GroupLayout;
use dear_net::frame::{read_frame, write_data_frame};
use dear_net::{probe_alpha_beta, ShmEndpoint, TcpEndpoint};

use crate::stats::median;
use crate::workload::{Endpoint, Fabric, Spec, WORLD};

/// Sizes the replay runs at, taken from the workload's own layout.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub params: usize,
    pub groups: usize,
    pub group_elems: Vec<usize>,
    pub max_group_elems: usize,
    /// Wire bytes per message: the configured segment, or a whole ring
    /// chunk of the largest group when the workload does not segment.
    pub segment_bytes: usize,
}

impl Sizes {
    pub fn of(spec: &Spec) -> Sizes {
        let net = spec.build_net(0);
        let layout = GroupLayout::from_buffer_wire(&net, Some(spec.fusion_bytes), spec.wire);
        let group_elems: Vec<usize> = (0..layout.num_groups())
            .map(|g| layout.group_elements(g))
            .collect();
        let max_group_elems = group_elems.iter().copied().max().unwrap_or(0);
        let segment_bytes = if spec.segment_bytes > 0 {
            spec.segment_bytes
        } else {
            max_group_elems.div_ceil(WORLD) * spec.wire.size_bytes()
        };
        Sizes {
            params: layout.total_elements(),
            groups: layout.num_groups(),
            group_elems,
            max_group_elems,
            segment_bytes,
        }
    }

    pub fn max_group_bytes(&self, wire: DType) -> usize {
        self.max_group_elems * wire.size_bytes()
    }
}

#[derive(Debug, Clone)]
pub struct Replay {
    /// f32-side bytes per second of each kernel, in GiB/s.
    pub sum_f32_gibs: f64,
    pub sum_bf16_gibs: f64,
    pub encode_round_bf16_gibs: f64,
    pub decode_bf16_gibs: f64,
    pub wire_encode_ms_per_step: f64,
    pub wire_accumulate_ms_per_step: f64,
    pub frame_roundtrip_gibs: f64,
    pub alpha_beta: CostModel,
    pub rs_ms: f64,
    pub ag_ms: f64,
    pub ar_ms: f64,
}

fn gibs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / f64::from(1u32 << 30)
}

/// Median seconds per call of `f`, calling it at least `min_reps` times
/// and until `budget_s` has passed.
fn time_calls(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn fill(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ salt) as f32 / u32::MAX as f32 - 0.5)
        .collect()
}

/// Runs every layer of the replay; `budget_s` bounds the time-bounded
/// parts (kernels, wire codec, framing).
pub fn run(spec: &Spec, sizes: &Sizes, budget_s: f64) -> Replay {
    let part = budget_s / 8.0;
    let [sum_f32_gibs, sum_bf16_gibs, encode_round_bf16_gibs, decode_bf16_gibs] =
        kernels(sizes.segment_bytes, part);
    let (wire_encode_ms_per_step, wire_accumulate_ms_per_step) = wire_codec(spec, sizes, part);
    let frame_roundtrip_gibs = frame_roundtrip(spec.wire, sizes.segment_bytes, part);
    let probe_sizes = [
        1 << 10,
        16 << 10,
        256 << 10,
        sizes.segment_bytes.max(512 << 10),
    ];
    let ring_elems = sizes.max_group_elems;
    let seg = spec.segments();
    let (alpha_beta, [rs_ms, ag_ms, ar_ms]) = match spec.fabric {
        Fabric::Tcp => transport_and_ring::<TcpEndpoint, _>(&probe_sizes, ring_elems, seg, |e| e),
        Fabric::Shm => transport_and_ring::<ShmEndpoint, _>(&probe_sizes, ring_elems, seg, |e| e),
        Fabric::Emu => {
            let delay = spec.delay().expect("the emulated fabric injects delay");
            transport_and_ring::<LocalEndpoint, _>(&probe_sizes, ring_elems, seg, move |e| {
                DelayFabric::with_scale(e, delay.model, delay.scale)
            })
        }
    };
    Replay {
        sum_f32_gibs,
        sum_bf16_gibs,
        encode_round_bf16_gibs,
        decode_bf16_gibs,
        wire_encode_ms_per_step,
        wire_accumulate_ms_per_step,
        frame_roundtrip_gibs,
        alpha_beta,
        rs_ms,
        ag_ms,
        ar_ms,
    }
}

/// GiB/s of `sum_f32`, `sum_bf16`, `encode_round_bf16` and `decode_bf16`.
fn kernels(segment_bytes: usize, budget_s: f64) -> [f64; 4] {
    // One segment's worth of elements at each kernel's wire width.
    let n32 = (segment_bytes / 4).max(1);
    let n16 = (segment_bytes / 2).max(1);
    let src32 = fill(n32, 1);
    let mut acc32 = fill(n32, 2);
    let t = time_calls(budget_s, 20, || {
        simd::sum_f32(black_box(&mut acc32), black_box(&src32))
    });
    let sum_f32 = gibs(n32 * 4, t);

    let mut src16 = fill(n16, 3);
    let mut bytes16 = vec![0u8; n16 * 2];
    simd::encode_bf16(&src16, &mut bytes16);
    let mut acc16 = fill(n16, 4);
    let t = time_calls(budget_s, 20, || {
        simd::sum_bf16(black_box(&mut acc16), black_box(&bytes16))
    });
    let sum_bf16 = gibs(n16 * 4, t);
    let t = time_calls(budget_s, 20, || {
        simd::encode_round_bf16(black_box(&mut src16), black_box(&mut bytes16));
    });
    let encode_round = gibs(n16 * 4, t);
    let t = time_calls(budget_s, 20, || {
        simd::decode_bf16(black_box(&bytes16), black_box(&mut acc16));
    });
    [sum_f32, sum_bf16, encode_round, gibs(n16 * 4, t)]
}

/// One step's codec work on one rank: every fusion group's reduce-scatter
/// and all-gather chunks encoded in segments, and the reduce-scatter
/// chunk accumulated, in the workload's wire dtype.
fn wire_codec(spec: &Spec, sizes: &Sizes, budget_s: f64) -> (f64, f64) {
    let seg = spec.segments();
    let chunks: Vec<usize> = sizes
        .group_elems
        .iter()
        .map(|&g| g.div_ceil(WORLD))
        .collect();
    let max_chunk = chunks.iter().copied().max().unwrap_or(1);
    let mut data = fill(max_chunk, 5);
    let mut acc = fill(max_chunk, 6);
    let mut pool: Vec<u8> = Vec::with_capacity(max_chunk * 4);
    let segments = |n: usize| seg.split(0..n);
    let encode = time_calls(budget_s, 5, || {
        // OP1.RS and OP2.AG each send one chunk per group on two ranks.
        for &n in chunks.iter().chain(&chunks) {
            for s in segments(n) {
                let buf =
                    WireBuf::encode_round_into(&mut data[s], spec.wire, std::mem::take(&mut pool));
                pool = black_box(buf).into_bytes();
            }
        }
    });
    // The reduce-scatter's received segments, encoded once up front.
    let received: Vec<(std::ops::Range<usize>, WireBuf)> = chunks
        .iter()
        .flat_map(|&n| segments(n))
        .map(|s| {
            let buf = WireBuf::encode(&data[s.clone()], spec.wire);
            (s, buf)
        })
        .collect();
    let accumulate = time_calls(budget_s, 5, || {
        for (s, buf) in &received {
            buf.accumulate_into(black_box(&mut acc[s.clone()]), ReduceOp::Sum)
                .expect("lengths match");
        }
    });
    (encode * 1e3, accumulate * 1e3)
}

/// `write_data_frame` on one thread and `read_frame` on another over a
/// loopback socket pair: GiB/s of payload through the framing layer.
fn frame_roundtrip(wire: DType, segment_bytes: usize, budget_s: f64) -> f64 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let payload = WireBuf::encode(&fill(segment_bytes / wire.size_bytes(), 7), wire);
    // Sized for about `budget_s` at 1 GB/s.
    let frames = ((budget_s * 1.0e9 / segment_bytes as f64) as usize).clamp(16, 4096);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Unbuffered, as the endpoint's writer threads write: one
            // vectored syscall per frame.
            let mut w = TcpStream::connect(addr).expect("connect loopback");
            w.set_nodelay(true).expect("nodelay");
            for _ in 0..frames {
                write_data_frame(&mut w, 0, &payload).expect("write frame");
            }
        });
        let (mut r, _) = listener.accept().expect("accept loopback");
        let mut body = Vec::new();
        let t = Instant::now();
        for _ in 0..frames {
            read_frame(&mut r, &mut body).expect("read frame");
        }
        let secs = t.elapsed().as_secs_f64();
        writer.join().expect("frame writer panicked");
        gibs(frames * payload.num_bytes(), secs)
    })
}

/// α-β probe and ring RS/AG/AR at the largest fusion group, both on a
/// fresh pair of the workload's transport kind. Returns the rank-0 α-β
/// model and the RS, AG and AR times in ms.
fn transport_and_ring<E: Endpoint, T>(
    probe_sizes: &[usize],
    ring_elems: usize,
    seg: SegmentConfig,
    wrap: impl Fn(E) -> T + Sync,
) -> (CostModel, [f64; 3])
where
    T: Transport + Send,
{
    const REPS: usize = 9;
    let per_rank: Vec<(CostModel, Vec<[f64; 3]>)> = std::thread::scope(|s| {
        let handles: Vec<_> = E::create_pair()
            .into_iter()
            .map(|ep| {
                let wrap = &wrap;
                s.spawn(move || {
                    let t = wrap(ep);
                    let peer = (t.rank() + 1) % WORLD;
                    let model =
                        probe_alpha_beta(&t, peer, probe_sizes, 9).expect("alpha-beta probe");
                    let mut data = fill(ring_elems, t.rank() as u32);
                    let owned = ring_owned_chunk(t.rank(), WORLD);
                    let secs = |t0: Instant| t0.elapsed().as_secs_f64();
                    let reps = (0..REPS)
                        .map(|_| {
                            let t0 = Instant::now();
                            ring_reduce_scatter_seg(&t, &mut data, ReduceOp::Sum, seg)
                                .expect("ring RS");
                            let rs = secs(t0);
                            let t0 = Instant::now();
                            ring_all_gather_seg(&t, &mut data, owned, seg).expect("ring AG");
                            let ag = secs(t0);
                            let t0 = Instant::now();
                            ring_all_reduce_seg(&t, &mut data, ReduceOp::Sum, seg)
                                .expect("ring AR");
                            let ar = secs(t0);
                            // Keep values bounded across repetitions.
                            data.iter_mut().for_each(|x| *x *= 0.25);
                            [rs, ag, ar]
                        })
                        .collect();
                    (model, reps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay rank panicked"))
            .collect()
    });
    // A collective ends when its slower rank does: per repetition take
    // the later rank, then the median over repetitions.
    let phase_ms = |k: usize| {
        let per_rep: Vec<f64> = (0..REPS)
            .map(|i| per_rank.iter().map(|r| r.1[i][k]).fold(0.0, f64::max))
            .collect();
        median(&per_rep) * 1e3
    };
    (per_rank[0].0, [phase_ms(0), phase_ms(1), phase_ms(2)])
}
