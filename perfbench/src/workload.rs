//! The three training workloads and the runs the benchmark makes of them:
//! a distributed run (world 2, one process, a closed loop per rank) and
//! the plain single-worker baseline of the same task.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dear_collectives::{
    CollectiveError, CostModel, DType, LocalEndpoint, LocalFabric, Message, SegmentConfig,
    Transport,
};
use dear_core::{
    run_worker, DelayConfig, OptimKind, ParallelismStrategy, PipelineMode, TrainConfig,
};
use dear_minidnn::{
    softmax_cross_entropy, Adam, BlobDataset, Linear, Optimizer, Relu, Sequential, Sgd, Tensor,
};
use dear_net::frame::DATA_HEADER_BYTES;
use dear_net::{hash_params, tcp_loopback, ShmEndpoint, ShmFabric, TcpEndpoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every workload runs two ranks from one process: the host has two cores,
/// and a larger world would measure the scheduler rather than the program.
pub const WORLD: usize = 2;

/// Steps per block of the timed phase: 200 pooled step times per block
/// put ten beyond its 95th percentile.
pub const BLOCK_STEPS: usize = 100;

/// Held-out batches start here, far past any training batch index.
const EVAL_INDEX_BASE: u64 = 1 << 40;

/// The transport a workload trains over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `dear_net::tcp_loopback`: real sockets, framing and writer threads.
    Tcp,
    /// The in-process fabric with injected 10GbE-class α-β delays.
    Emu,
    /// `dear_net::ShmFabric`: lock-free shared-memory rings.
    Shm,
}

impl Fabric {
    pub fn name(self) -> &'static str {
        match self {
            Fabric::Tcp => "tcp-loopback",
            Fabric::Emu => "in-process+delay",
            Fabric::Shm => "shm",
        }
    }
}

/// One workload: the task, the model, and how the runtime is configured.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: Fabric,
    /// Layer widths of the MLP, input features first, classes last.
    pub dims: &'static [usize],
    pub batch_per_rank: usize,
    pub adam: bool,
    pub strategy: ParallelismStrategy,
    pub wire: DType,
    /// Maximum wire bytes per message; 0 sends each chunk whole.
    pub segment_bytes: usize,
    pub fusion_bytes: u64,
    pub lr: f32,
    /// Blob noise, about 0.5-1.5 × √features: the classes overlap, so the
    /// held-out loss after the timed steps varies little by seed.
    pub noise: f32,
    pub warmup_steps: u64,
    /// Timed steps per second of `--seconds` (about one second of steps on
    /// a 2-core AVX2 host). The count, not the clock, ends the timed phase,
    /// so `eval_loss` and `params_hash` are fixed for a seed.
    pub steps_per_second: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "tcp-wide",
        why: "19 MB shallow MLP at batch 2 on TCP loopback: per-step work scales with bytes, so framing, ring and f32 sums dominate",
        fabric: Fabric::Tcp,
        dims: &[1024, 2048, 1024, 512, 16],
        batch_per_rank: 2,
        adam: false,
        strategy: ParallelismStrategy::Ddp,
        wire: DType::F32,
        segment_bytes: 1 << 20,
        fusion_bytes: 4 << 20,
        lr: 0.001,
        noise: 20.0,
        warmup_steps: 3,
        steps_per_second: 32.0,
    },
    Spec {
        name: "emu-deep",
        why: "10-layer narrow MLP at batch 32 over injected 10GbE delay: step time set by BackPipe/FeedPipe overlap and compute, not bytes",
        fabric: Fabric::Emu,
        dims: &[64, 256, 256, 256, 256, 256, 256, 256, 256, 256, 16],
        batch_per_rank: 32,
        adam: false,
        strategy: ParallelismStrategy::Ddp,
        wire: DType::F32,
        segment_bytes: 0,
        fusion_bytes: 512 << 10,
        lr: 0.01,
        noise: 12.0,
        warmup_steps: 5,
        steps_per_second: 74.0,
    },
    Spec {
        name: "shm-zero2-bf16",
        why: "Zero2 + Adam on shared memory with a segmented bf16 wire: narrow casts, sharded update and lock-free rings instead of f32 sockets",
        fabric: Fabric::Shm,
        dims: &[256, 1024, 512, 256, 16],
        batch_per_rank: 16,
        adam: true,
        strategy: ParallelismStrategy::Zero2,
        wire: DType::Bf16,
        segment_bytes: 256 << 10,
        fusion_bytes: 1 << 20,
        lr: 0.001,
        noise: 24.0,
        warmup_steps: 5,
        steps_per_second: 64.0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn build_net(&self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        for (i, w) in self.dims.windows(2).enumerate() {
            if i > 0 {
                net = net.push(Relu::new());
            }
            net = net.push(Linear::new(w[0], w[1], &mut rng));
        }
        net
    }

    pub fn dataset(&self, seed: u64) -> BlobDataset {
        let classes = *self.dims.last().expect("dims has an output layer");
        BlobDataset::new(self.dims[0], classes, self.noise, seed)
    }

    pub fn segments(&self) -> SegmentConfig {
        SegmentConfig::new(self.segment_bytes).with_wire(self.wire)
    }

    /// Optimizer state vectors per parameter (SGD momentum, or Adam's two).
    pub fn state_vectors(&self) -> usize {
        if self.adam {
            2
        } else {
            1
        }
    }

    pub fn train_config(&self, mode: PipelineMode, strategy: ParallelismStrategy) -> TrainConfig {
        TrainConfig {
            lr: self.lr,
            momentum: if self.adam { 0.0 } else { 0.9 },
            fusion_buffer: Some(self.fusion_bytes),
            optim: if self.adam {
                OptimKind::adam_default()
            } else {
                OptimKind::Sgd
            },
            mode,
            delay: self.delay(),
            segments: self.segments(),
            strategy,
            ..TrainConfig::default()
        }
    }

    /// The emulated network of the in-process fabric: 10GbE α-β, real scale.
    pub fn delay(&self) -> Option<DelayConfig> {
        (self.fabric == Fabric::Emu).then(|| DelayConfig {
            model: CostModel::ten_gbe(),
            scale: 1.0,
        })
    }

    /// The single-worker optimizer equivalent to the distributed update.
    pub fn local_optimizer(&self) -> Box<dyn Optimizer> {
        if self.adam {
            Box::new(Adam::with_options(self.lr, 0.9, 0.999, 1e-8, 0.0))
        } else {
            Box::new(Sgd::with_options(self.lr, 0.9, 0.0))
        }
    }

    /// Timed steps for `seconds` of training, at least `min`.
    pub fn steps_for(&self, seconds: f64, min: u64) -> u64 {
        ((seconds * self.steps_per_second).round() as u64).max(min)
    }

    /// One rank's training batches for global steps `0..steps`.
    pub fn batches(&self, seed: u64, steps: u64, rank: usize) -> Vec<(Tensor, Vec<usize>)> {
        let data = self.dataset(seed);
        (0..steps)
            .map(|i| data.shard(i, self.batch_per_rank * WORLD, rank, WORLD))
            .collect()
    }

    /// Mean cross-entropy over a fixed held-out set.
    pub fn eval_loss(&self, seed: u64, net: &mut Sequential) -> f64 {
        let data = self.dataset(seed);
        let (batches, batch) = (64u64, 32usize);
        let total: f64 = (0..batches)
            .map(|i| {
                let (x, labels) = data.batch(EVAL_INDEX_BASE + i, batch);
                f64::from(softmax_cross_entropy(&net.forward(&x), &labels).0)
            })
            .sum();
        total / batches as f64
    }
}

/// Shares an endpoint with the benchmark and counts what the comm thread
/// hands it: payload bytes and messages sent. Counting happens here, in
/// the benchmark, not inside the program.
pub struct Counted<T> {
    ep: Arc<T>,
    bytes: Arc<AtomicU64>,
    msgs: Arc<AtomicU64>,
}

impl<T: Transport> Transport for Counted<T> {
    fn rank(&self) -> usize {
        self.ep.rank()
    }
    fn world_size(&self) -> usize {
        self.ep.world_size()
    }
    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.bytes
            .fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.ep.send(to, msg)
    }
    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.ep.recv(from)
    }
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.ep.set_recv_timeout(timeout)
    }
    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.ep.take_buffer(capacity_bytes)
    }
    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.ep.recycle_buffer(buf);
    }
}

/// A transport the benchmark can create and read socket counters from.
pub trait Endpoint: Transport + Send + Sync + Sized + 'static {
    fn create_pair() -> Vec<Self>;
    /// Bytes written to sockets (framing included) and send retries.
    fn socket_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// [`Endpoint::socket_counters`] once every frame handed to the
    /// endpoint so far (`handed`: payload bytes and messages) is counted.
    /// A writer thread counts a frame after its write returns, so the peer
    /// can receive the last frame before the count includes it; reading
    /// at once would miss it. Gives up after `SETTLE_TIMEOUT`, leaving the
    /// shortfall for the traffic check to report.
    fn settled_socket_counters(&self, handed: (u64, u64)) -> Option<(u64, u64)> {
        let framed = handed.0 + handed.1 * DATA_HEADER_BYTES as u64;
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        loop {
            let now = self.socket_counters()?;
            if now.0 >= framed || Instant::now() >= deadline {
                return Some(now);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// How long a socket counter may lag the frames handed to its endpoint.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(5);

impl Endpoint for TcpEndpoint {
    fn create_pair() -> Vec<Self> {
        tcp_loopback(WORLD).expect("TCP loopback rendezvous")
    }
    fn socket_counters(&self) -> Option<(u64, u64)> {
        let st = self.stats();
        Some((
            st.iter().map(|p| p.bytes_sent).sum(),
            st.iter().map(|p| p.send_retries).sum(),
        ))
    }
}

impl Endpoint for ShmEndpoint {
    fn create_pair() -> Vec<Self> {
        ShmFabric::create(WORLD)
    }
}

impl Endpoint for LocalEndpoint {
    fn create_pair() -> Vec<Self> {
        LocalFabric::create(WORLD)
    }
}

/// What one distributed run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub steps: u64,
    /// Workload start → slowest rank leaving the post-warm-up barrier.
    pub setup_s: f64,
    pub fabric_ms: f64,
    pub model_ms: f64,
    pub into_optim_ms: f64,
    pub warmup_ms: f64,
    /// Every `train_step` call of the timed phase, in ms, per rank.
    pub rank_step_ms: Vec<Vec<f64>>,
    /// Timed wall time of the slowest rank, final `synchronize` included.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub hashes: Vec<u64>,
    pub eval_loss: f64,
    /// Payload bytes and messages sent by all ranks over the timed steps.
    pub payload_bytes: u64,
    pub messages: u64,
    /// Socket bytes (framing included) and send retries, TCP only.
    pub socket_bytes: Option<u64>,
    pub send_retries: Option<u64>,
}

impl RunResult {
    pub fn samples_per_s(&self, spec: &Spec) -> f64 {
        (self.steps * (spec.batch_per_rank * WORLD) as u64) as f64 / self.wall_s
    }

    /// Global samples per second of each timed step, on its slower rank.
    pub fn step_rates(&self, spec: &Spec) -> Vec<f64> {
        let global_batch = (spec.batch_per_rank * WORLD) as f64;
        (0..self.steps as usize)
            .map(|i| {
                let ms = self.rank_step_ms.iter().map(|v| v[i]).fold(0.0, f64::max);
                global_batch / (ms / 1e3)
            })
            .collect()
    }

    /// Step times pooled over ranks.
    pub fn step_ms(&self) -> Vec<f64> {
        self.rank_step_ms.concat()
    }

    /// The timed steps cut into blocks of `BLOCK_STEPS` consecutive steps:
    /// per block, the global samples per second on its slower rank and the
    /// step times pooled over ranks.
    pub fn blocks(&self, spec: &Spec) -> Vec<(f64, Vec<f64>)> {
        let n = self.steps as usize / BLOCK_STEPS;
        (0..n)
            .map(|b| {
                let range = b * BLOCK_STEPS..(b + 1) * BLOCK_STEPS;
                let wall_ms = self
                    .rank_step_ms
                    .iter()
                    .map(|v| v[range.clone()].iter().sum::<f64>())
                    .fold(0.0, f64::max);
                let rate = (BLOCK_STEPS * spec.batch_per_rank * WORLD) as f64 / (wall_ms / 1e3);
                let pooled = self
                    .rank_step_ms
                    .iter()
                    .flat_map(|v| v[range.clone()].iter().copied());
                (rate, pooled.collect())
            })
            .collect()
    }
}

struct RankOut {
    fabric_ms: f64,
    model_ms: f64,
    into_optim_ms: f64,
    warmup_ms: f64,
    setup_end: Instant,
    step_ms: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    hash: u64,
    eval_loss: Option<f64>,
    payload: (u64, u64),
    socket: Option<(u64, u64)>,
}

/// Calls into `DistOptim` attempted, and how many returned `Err`.
#[derive(Debug, Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    fn note<V>(&mut self, r: Result<V, CollectiveError>) {
        self.attempted += 1;
        self.failed += u64::from(r.is_err());
    }
}

/// How a distributed run is made.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub mode: PipelineMode,
    pub strategy: ParallelismStrategy,
    pub steps: u64,
    /// Record spans (only over the timed steps).
    pub traced: bool,
    /// Stop after the warm-up: a set-up probe.
    pub setup_only: bool,
}

pub fn run_distributed(spec: &Spec, seed: u64, plan: &RunPlan) -> RunResult {
    match spec.fabric {
        Fabric::Tcp => run_on::<TcpEndpoint>(spec, seed, plan),
        Fabric::Shm => run_on::<ShmEndpoint>(spec, seed, plan),
        Fabric::Emu => run_on::<LocalEndpoint>(spec, seed, plan),
    }
}

/// Creates the fabric, then runs one `run_worker` per rank on its own
/// thread — what `run_training` does for the in-process fabric, here for
/// every transport, so that the benchmark can count traffic on each.
fn run_on<T: Endpoint>(spec: &Spec, seed: u64, plan: &RunPlan) -> RunResult {
    let warmup = spec.warmup_steps;
    let total = warmup + if plan.setup_only { 0 } else { plan.steps };
    let batches: Vec<_> = (0..WORLD).map(|r| spec.batches(seed, total, r)).collect();
    let start = Instant::now();
    let endpoints: Vec<Arc<T>> = T::create_pair().into_iter().map(Arc::new).collect();
    let fabric_done = Instant::now();
    let config = spec.train_config(plan.mode, plan.strategy.clone());
    let gate = Barrier::new(WORLD);
    let outs: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .iter()
            .zip(&batches)
            .map(|(ep, batches)| {
                let counted = Counted {
                    ep: Arc::clone(ep),
                    bytes: Arc::new(AtomicU64::new(0)),
                    msgs: Arc::new(AtomicU64::new(0)),
                };
                let (bytes, msgs) = (Arc::clone(&counted.bytes), Arc::clone(&counted.msgs));
                let config = config.clone();
                let gate = &gate;
                let ep = Arc::clone(ep);
                s.spawn(move || {
                    // One rank per core, as one process per device: the
                    // comm thread spawned by `run_worker` inherits this
                    // thread's affinity, so each rank's compute and comm
                    // threads share its core.
                    dear_net::affinity::pin_current_thread(ep.rank() % cores());
                    run_worker(counted, config, |handle| {
                        let rank = handle.rank();
                        let t_model = Instant::now();
                        let mut net = spec.build_net(seed);
                        let t_optim = Instant::now();
                        let mut optim = handle.into_optim(&net);
                        let t_warm = Instant::now();
                        let mut counts = Counts::default();
                        for batch in &batches[..warmup as usize] {
                            counts.note(optim.train_step(&mut net, &batch.0, &batch.1));
                        }
                        counts.note(optim.synchronize(&mut net));
                        counts.note(optim.barrier());
                        let setup_end = Instant::now();
                        let mut out = RankOut {
                            fabric_ms: ms(fabric_done - start),
                            model_ms: ms(t_optim - t_model),
                            into_optim_ms: ms(t_warm - t_optim),
                            warmup_ms: ms(setup_end - t_warm),
                            setup_end,
                            step_ms: Vec::new(),
                            wall_s: 0.0,
                            attempted: 0,
                            failed: 0,
                            hash: 0,
                            eval_loss: None,
                            payload: (0, 0),
                            socket: None,
                        };
                        if !plan.setup_only {
                            if plan.traced && rank == 0 {
                                dear_core::trace::clear();
                                dear_core::trace::set_enabled(true);
                            }
                            gate.wait();
                            let handed =
                                || (bytes.load(Ordering::Relaxed), msgs.load(Ordering::Relaxed));
                            let payload0 = handed();
                            let socket0 = ep.settled_socket_counters(payload0);
                            let t0 = Instant::now();
                            out.step_ms.reserve(plan.steps as usize);
                            for batch in &batches[warmup as usize..] {
                                let t = Instant::now();
                                counts.note(optim.train_step(&mut net, &batch.0, &batch.1));
                                out.step_ms.push(ms(t.elapsed()));
                            }
                            counts.note(optim.synchronize(&mut net));
                            out.wall_s = t0.elapsed().as_secs_f64();
                            gate.wait();
                            if plan.traced && rank == 0 {
                                dear_core::trace::set_enabled(false);
                            }
                            let payload1 = handed();
                            out.payload = (payload1.0 - payload0.0, payload1.1 - payload0.1);
                            out.socket = ep
                                .settled_socket_counters(payload1)
                                .zip(socket0)
                                .map(|(a, b)| (a.0 - b.0, a.1 - b.1));
                        }
                        out.hash = hash_params(&net.flat_params());
                        if !plan.setup_only && rank == 0 {
                            out.eval_loss = Some(spec.eval_loss(seed, &mut net));
                        }
                        out.attempted = counts.attempted;
                        out.failed = counts.failed;
                        out
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let max = |f: fn(&RankOut) -> f64| outs.iter().map(f).fold(0.0, f64::max);
    RunResult {
        steps: plan.steps,
        setup_s: outs
            .iter()
            .map(|o| (o.setup_end - start).as_secs_f64())
            .fold(0.0, f64::max),
        fabric_ms: max(|o| o.fabric_ms),
        model_ms: max(|o| o.model_ms),
        into_optim_ms: max(|o| o.into_optim_ms),
        warmup_ms: max(|o| o.warmup_ms),
        rank_step_ms: outs.iter().map(|o| o.step_ms.clone()).collect(),
        wall_s: max(|o| o.wall_s),
        attempted: outs.iter().map(|o| o.attempted).sum(),
        failed: outs.iter().map(|o| o.failed).sum(),
        hashes: outs.iter().map(|o| o.hash).collect(),
        eval_loss: outs.iter().find_map(|o| o.eval_loss).unwrap_or(f64::NAN),
        payload_bytes: outs.iter().map(|o| o.payload.0).sum(),
        messages: outs.iter().map(|o| o.payload.1).sum(),
        socket_bytes: outs
            .iter()
            .map(|o| o.socket.map(|s| s.0))
            .sum::<Option<u64>>(),
        send_retries: outs
            .iter()
            .map(|o| o.socket.map(|s| s.1))
            .sum::<Option<u64>>(),
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The plain single-worker run: the same model, per-rank batch and
/// optimizer through `forward`, `backward` and `step`, each phase timed.
#[derive(Debug, Clone, Default)]
pub struct SingleResult {
    pub ff_ms: Vec<f64>,
    pub bp_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub samples_per_s: f64,
}

pub fn run_single(spec: &Spec, seed: u64, steps: u64) -> SingleResult {
    let batches = spec.batches(seed, steps, 0);
    let mut net = spec.build_net(seed);
    let mut opt = spec.local_optimizer();
    let mut out = SingleResult::default();
    let t0 = Instant::now();
    for (x, labels) in &batches {
        let t = Instant::now();
        let logits = net.forward(x);
        let (_, dloss) = softmax_cross_entropy(&logits, labels);
        let t_ff = Instant::now();
        net.zero_grads();
        net.backward(&dloss);
        let t_bp = Instant::now();
        opt.step(&mut net);
        let t_upd = Instant::now();
        out.ff_ms.push(ms(t_ff - t));
        out.bp_ms.push(ms(t_bp - t_ff));
        out.update_ms.push(ms(t_upd - t_bp));
    }
    out.samples_per_s = (steps as usize * spec.batch_per_rank) as f64 / t0.elapsed().as_secs_f64();
    out
}
