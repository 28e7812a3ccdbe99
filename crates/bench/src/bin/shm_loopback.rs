//! Shared-memory tier vs TCP loopback: the intra-node win the tiered
//! transport exists to capture.
//!
//! Written to `results/shm_loopback.txt`:
//!
//! - **Per-tier α-β fits** from the same ping-pong probe the runtime uses
//!   ([`probe_alpha_beta`]): the measured startup latency and per-byte
//!   cost of a shm queue hop vs a kernel socket hop on one machine.
//! - **Ring all-reduce sweep, 1 KB → 25 MB** over a 4-rank world on each
//!   transport. Both worlds run the identical collective code — the gap
//!   is purely the transport (in-process queues vs serialize + syscall +
//!   copy through the loopback stack).

use std::fmt::Write as _;
use std::time::Instant;

use dear_collectives::{ring_all_reduce_seg, CostModel, ReduceOp, SegmentConfig, Transport};
use dear_net::{probe_alpha_beta, tcp_loopback, ShmFabric};

const WORLD: usize = 4;
const SWEEP: [usize; 6] = [
    1 << 10,  // 1 KB
    16 << 10, // 16 KB
    256 << 10,
    1 << 20, // 1 MB
    4 << 20,
    25 << 20, // 25 MB — the paper's fusion-buffer working set
];

/// Wall time of one ring all-reduce of `bytes`, averaged over `iters`
/// (after one warmup), on an existing world. All ranks run concurrently;
/// the cost reported is the whole world's, as the runtime experiences it.
fn time_ring<T: Transport + Send + Sync>(eps: &[T], bytes: usize, iters: usize) -> f64 {
    let elems = (bytes / 4).max(1);
    let seg = SegmentConfig::new(1 << 20);
    let run = |n: usize| {
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    let mut buf = vec![ep.rank() as f32; elems];
                    for _ in 0..n {
                        ring_all_reduce_seg(ep, &mut buf, ReduceOp::Sum, seg).unwrap();
                    }
                });
            }
        });
    };
    run(1); // warmup: pools, page faults, lazy socket state
    let start = Instant::now();
    run(iters);
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn model_line(name: &str, m: &CostModel) -> String {
    format!(
        "{name}: alpha={:.1} us  beta={:.4} ns/B ({:.2} GB/s)",
        m.alpha_ns / 1e3,
        m.beta_ns_per_byte,
        1.0 / m.beta_ns_per_byte
    )
}

fn main() {
    // --- per-tier α-β probe, exactly as the selector would measure it ---
    let probe_sizes = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];
    let shm_pair = ShmFabric::create(2);
    let shm_model = std::thread::scope(|s| {
        let handles: Vec<_> = shm_pair
            .iter()
            .map(|ep| {
                let sizes = &probe_sizes;
                s.spawn(move || probe_alpha_beta(ep, 1 - ep.rank(), sizes, 9).unwrap())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .next()
            .unwrap()
    });
    let tcp_pair = tcp_loopback(2).expect("loopback rendezvous");
    let tcp_model = std::thread::scope(|s| {
        let handles: Vec<_> = tcp_pair
            .iter()
            .map(|ep| {
                let sizes = &probe_sizes;
                s.spawn(move || probe_alpha_beta(ep, 1 - ep.rank(), sizes, 9).unwrap())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .next()
            .unwrap()
    });
    drop(tcp_pair);

    // --- collective sweep on both transports ---
    let shm_world = ShmFabric::create(WORLD);
    let tcp_world = tcp_loopback(WORLD).expect("loopback rendezvous");
    let mut rows = Vec::new();
    for &bytes in &SWEEP {
        let iters = if bytes <= 1 << 20 { 20 } else { 3 };
        let shm_ns = time_ring(&shm_world, bytes, iters);
        let tcp_ns = time_ring(&tcp_world, bytes, iters);
        rows.push((bytes, shm_ns, tcp_ns));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# shm tier vs TCP loopback ({WORLD}-rank ring all-reduce, 1 MB segments)"
    );
    let _ = writeln!(
        out,
        "# cargo run --release -p dear-bench --bin shm_loopback"
    );
    let _ = writeln!(out, "# probe: min half-RTT ping-pong, least-squares fit");
    let _ = writeln!(out, "{}", model_line("alpha_beta_shm", &shm_model));
    let _ = writeln!(out, "{}", model_line("alpha_beta_tcp_loopback", &tcp_model));
    let _ = writeln!(
        out,
        "{:>12}  {:>12}  {:>12}  {:>8}",
        "bytes", "shm_ms", "tcp_ms", "speedup"
    );
    let mut min_speedup = f64::INFINITY;
    for (bytes, shm_ns, tcp_ns) in &rows {
        let speedup = tcp_ns / shm_ns;
        min_speedup = min_speedup.min(speedup);
        let _ = writeln!(
            out,
            "{bytes:>12}  {:>12.3}  {:>12.3}  {speedup:>7.2}x",
            shm_ns / 1e6,
            tcp_ns / 1e6,
        );
    }
    let _ = writeln!(
        out,
        "intra_node_win={}  # shm faster at every size ⇔ min speedup > 1",
        if min_speedup > 1.0 { "yes" } else { "NO" }
    );
    let _ = writeln!(out, "min_speedup={min_speedup:.2}");
    print!("{out}");
    std::fs::create_dir_all("results").expect("cannot create results/");
    std::fs::write("results/shm_loopback.txt", out).expect("writing results/shm_loopback.txt");
    eprintln!("wrote results/shm_loopback.txt");
}
