//! The repository's training benchmark: real DeAR training of one workload,
//! world 2 in one process, with its outputs checked.
//!
//! ```text
//! perfbench --workload <tcp-wide|emu-deep|shm-zero2-bf16> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` makes the untraced run and prints the end-to-end metrics;
//! `--trace 1` makes the traced run, its baselines and the layer replay,
//! and prints the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object. A report with the
//! host fingerprint, and for `--trace 1` a Chrome trace, are written under
//! `.bench_out/`. See `NOTES.md` for what each metric should move.

mod replay;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::Path;

use dear_collectives::{chunk_range, simd, CostModel};
use dear_core::{forecast_strategy, trace, ParallelismStrategy, PipelineMode};
use dear_net::frame::DATA_HEADER_BYTES;

use replay::Sizes;
use stats::{median, percentile, RankTrace};
use workload::{run_distributed, run_single, Fabric, RunPlan, RunResult, Spec, BLOCK_STEPS, WORLD};

const OUT_DIR: &str = ".bench_out";

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let workload = get("--workload")?;
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one invocation measured and checked.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    params_hash: u64,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn count(&mut self, run: &RunResult) {
        self.attempted += run.attempted;
        self.failed += run.failed;
    }

    /// Every rank of `run` ended with the same parameters.
    fn check_ranks_agree(&mut self, what: &str, run: &RunResult) {
        let agree = run.hashes.windows(2).all(|w| w[0] == w[1]);
        self.check(format!("{what}: params_hash equal on every rank"), agree);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::SPECS.map(|s| s.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let sizes = Sizes::of(spec);
    let fingerprint = fingerprint(spec, &sizes);
    println!("workload {}: {}", spec.name, spec.why);
    println!("fingerprint {fingerprint}");
    let seconds = args.seconds as f64;
    let report = if args.trace {
        per_layer(spec, &sizes, args.seed, seconds)
    } else {
        end_to_end(spec, &sizes, args.seed, seconds)
    };
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    for (name, ok) in &report.checks {
        println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
        if !ok {
            eprintln!("perfbench: check FAILED: {name}");
        }
    }
    println!(
        "params_hash={:#018x} workload={} seed={}",
        report.params_hash, spec.name, args.seed
    );
    let result = result_json(&report);
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    let full = format!(
        "{{\"fingerprint\": {fingerprint}, \"params_hash\": \"{:#018x}\", \"result\": {result}}}\n",
        report.params_hash
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, full)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{result}");
}

fn fingerprint(spec: &Spec, sizes: &Sizes) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let groups: Vec<String> = sizes
        .group_elems
        .iter()
        .map(|g| (g * spec.wire.size_bytes()).to_string())
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"simd_kernel\": \"{}\", \"world\": {WORLD}, \"transport\": \"{}\", \
         \"wire_dtype\": \"{}\", \"strategy\": \"{}\", \"optimizer\": \"{}\", \"params\": {}, \
         \"fusion_buffer_bytes\": {}, \"fusion_group_bytes\": [{}], \"segment_bytes\": {}, \
         \"batch_per_rank\": {}}}",
        simd::active_kernel(),
        spec.fabric.name(),
        spec.wire,
        spec.strategy,
        if spec.adam { "adam" } else { "sgd" },
        sizes.params,
        spec.fusion_bytes,
        groups.join(", "),
        sizes.segment_bytes,
        spec.batch_per_rank,
    )
}

fn result_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed
    )
}

fn dear_plan(spec: &Spec, steps: u64) -> RunPlan {
    RunPlan {
        mode: PipelineMode::Dear,
        strategy: spec.strategy.clone(),
        steps,
        traced: false,
        setup_only: false,
    }
}

/// The untraced run: end-to-end metrics only.
fn end_to_end(spec: &Spec, sizes: &Sizes, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let plan = dear_plan(spec, spec.steps_for(seconds, BLOCK_STEPS as u64));
    let run = run_distributed(spec, seed, &plan);
    report.count(&run);
    // Read before the set-up probes: their threads and buffers would add
    // allocator arenas that the measured run never had.
    let peak_rss = peak_rss_mib();
    let mut setups = vec![run.setup_s];
    for _ in 1..SETUPS {
        let probe = run_distributed(
            spec,
            seed,
            &RunPlan {
                setup_only: true,
                ..plan.clone()
            },
        );
        report.count(&probe);
        report.check_ranks_agree("set-up probe", &probe);
        setups.push(probe.setup_s);
    }
    check_training(&mut report, spec, sizes, seed, &run);

    // Medians over blocks of consecutive steps: a burst of load from
    // outside the benchmark moves a block, not the result.
    let blocks = run.blocks(spec);
    let rates: Vec<f64> = blocks.iter().map(|b| b.0).collect();
    let p50: Vec<f64> = blocks.iter().map(|b| percentile(&b.1, 0.5)).collect();
    let p95: Vec<f64> = blocks.iter().map(|b| percentile(&b.1, 0.95)).collect();
    report.notes.push(format!(
        "timed: {} steps per rank in {} blocks of {BLOCK_STEPS}; per block {} pooled step times, {} beyond p95; \
         step_ms p50/p95 over all {} = {:.3}/{:.3}",
        run.steps,
        blocks.len(),
        BLOCK_STEPS * WORLD,
        BLOCK_STEPS * WORLD / 20,
        run.step_ms().len(),
        percentile(&run.step_ms(), 0.5),
        percentile(&run.step_ms(), 0.95),
    ));
    report.notes.push(format!(
        "samples/s over the whole timed phase {:.3}; per block: {}; setup_s median of {SETUPS} set-ups",
        run.samples_per_s(spec),
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.notes.push(format!(
        "failed_step_share = {} ({} of {} train_step/synchronize/barrier calls)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.metric("samples_per_s", median(&rates), "1/s");
    report.metric("step_ms_p50", median(&p50), "ms");
    report.metric("step_ms_p95", median(&p95), "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("eval_loss", run.eval_loss, "nat");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report
}

/// Checks one DeAR run's outputs: ranks agree, the model learned, and on
/// TCP the bytes on the wire are the ones the algorithm must send.
fn check_training(report: &mut Report, spec: &Spec, sizes: &Sizes, seed: u64, run: &RunResult) {
    report.check_ranks_agree("DeAR run", run);
    report.params_hash = run.hashes[0];
    let untrained = spec.eval_loss(seed, &mut spec.build_net(seed));
    report.notes.push(format!(
        "eval_loss={:.6} untrained_loss={untrained:.6}",
        run.eval_loss
    ));
    report.check(
        "eval_loss finite and below the untrained loss",
        run.eval_loss.is_finite() && run.eval_loss < untrained,
    );
    let (payload, messages) = expected_traffic(spec, sizes);
    report.check(
        format!(
            "payload bytes/step {} == 2(n-1)/n x param bytes x n = {payload}, in {messages} messages",
            run.payload_bytes / run.steps.max(1)
        ),
        run.payload_bytes == payload * run.steps && run.messages == messages * run.steps,
    );
    if let Some(socket) = run.socket_bytes {
        // Framing is one data header per message; control traffic in the
        // window (none is expected) may add a few bytes.
        let framed = (payload + messages * DATA_HEADER_BYTES as u64) * run.steps;
        report.notes.push(format!(
            "tcp bytes/step/rank measured={} expected={} (payload {} + {} frames x {DATA_HEADER_BYTES} B); \
             over the timed steps measured={socket} expected={framed}",
            socket / run.steps.max(1) / WORLD as u64,
            framed / run.steps.max(1) / WORLD as u64,
            payload / WORLD as u64,
            messages / WORLD as u64
        ));
        report.check(
            "tcp socket bytes == payload + framing (within 0.1%)",
            socket >= framed && (socket - framed) as f64 <= 1e-3 * framed as f64,
        );
    }
}

/// Payload bytes and messages all ranks send per DeAR step: every fusion
/// group's OP1.RS and OP2.AG send `n − 1` chunks per rank, each chunk in
/// segments, so per rank the payload is `2(n−1)/n` of the parameter bytes.
fn expected_traffic(spec: &Spec, sizes: &Sizes) -> (u64, u64) {
    let seg = spec.segments();
    let (mut bytes, mut msgs) = (0u64, 0u64);
    for &g in &sizes.group_elems {
        for chunk in 0..WORLD {
            let len = chunk_range(g, WORLD, chunk).len();
            // Each chunk travels WORLD − 1 times in RS and again in AG.
            let hops = 2 * (WORLD as u64 - 1);
            bytes += hops * (len * spec.wire.size_bytes()) as u64;
            msgs += hops * seg.num_segments(len) as u64;
        }
    }
    (bytes, msgs)
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Worker scopes are named `s<N>.r<rank>`; other scopes (rendezvous,
/// sockets) are not part of a training step.
fn is_worker_scope(scope: &str) -> bool {
    scope
        .strip_prefix('s')
        .and_then(|s| s.split_once(".r"))
        .is_some_and(|(id, rank)| {
            id.bytes().all(|b| b.is_ascii_digit()) && rank.bytes().all(|b| b.is_ascii_digit())
        })
}

/// The traced run, its baselines and the layer replay: per-layer metrics.
fn per_layer(spec: &Spec, sizes: &Sizes, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let steps = spec.steps_for(seconds * 0.2, 20);
    let plan = dear_plan(spec, steps);

    // A set-up probe first, so that no compared run pays the process's
    // first allocations.
    let probe = run_distributed(
        spec,
        seed,
        &RunPlan {
            setup_only: true,
            ..plan.clone()
        },
    );
    report.count(&probe);
    let untraced = run_distributed(spec, seed, &plan);
    report.count(&untraced);
    check_training(&mut report, spec, sizes, seed, &untraced);

    // WFBP baseline. Zero2 cannot run under WFBP, so a Zero2 workload is
    // compared with WFBP over DDP: the same model, optimizer and wire.
    let wfbp = run_distributed(
        spec,
        seed,
        &RunPlan {
            mode: PipelineMode::Wfbp,
            strategy: ParallelismStrategy::Ddp,
            ..plan.clone()
        },
    );
    report.count(&wfbp);
    report.check_ranks_agree("WFBP run", &wfbp);

    let traced = run_distributed(
        spec,
        seed,
        &RunPlan {
            traced: true,
            ..plan.clone()
        },
    );
    report.count(&traced);
    report.check_ranks_agree("traced run", &traced);
    report.check(
        "tracing leaves the arithmetic unchanged (traced params_hash == untraced)",
        traced.hashes == untraced.hashes,
    );
    let ranks: Vec<RankTrace> = trace::timeline_groups()
        .iter()
        .filter(|(scope, _)| is_worker_scope(scope))
        .map(|(_, tl)| RankTrace::from_timeline(tl, steps))
        .collect();
    report.check(
        format!("trace holds one timeline per rank ({} found)", ranks.len()),
        ranks.len() == WORLD,
    );
    let tr = RankTrace::mean(&ranks);
    let chrome = Path::new(OUT_DIR).join(format!("{}.trace.json", spec.name));
    match trace::write_chrome_trace(&chrome, &trace::timeline()) {
        Ok(()) => report
            .notes
            .push(format!("chrome trace: {}", chrome.display())),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", chrome.display()),
    }
    trace::clear();

    let single = run_single(spec, seed, spec.steps_for(seconds * 0.1, 20));
    let replay = replay::run(spec, sizes, seconds * 0.15);

    let single_ff = median(&single.ff_ms);
    let single_bp = median(&single.bp_ms);
    let single_upd = median(&single.update_ms);
    // Compared runs are compared on their median step: a burst of outside
    // load in one run moves its tail, not its median.
    let rates = |run: &RunResult| run.step_rates(spec);
    let (dear_rates, wfbp_rates, traced_rates) = (rates(&untraced), rates(&wfbp), rates(&traced));
    let quartiles = |v: &[f64]| {
        format!(
            "{:.1} [{:.1}, {:.1}]",
            median(v),
            percentile(v, 0.25),
            percentile(v, 0.75)
        )
    };
    report.notes.push(format!(
        "per-step samples/s, median [q1, q3] over {steps} steps: DeAR {}, WFBP {}, DeAR traced {}",
        quartiles(&dear_rates),
        quartiles(&wfbp_rates),
        quartiles(&traced_rates)
    ));
    let measured_step_ms = (spec.batch_per_rank * WORLD) as f64 / median(&dear_rates) * 1e3;
    let ab = replay.alpha_beta;

    // Composition: the DES fed measured α/β (transport), γ (f32-side sum
    // kernel) and per-element update cost (minidnn), against the
    // single-worker FF + BP; perfect DeAR pipelining hides the shorter.
    let sum_gibs = if spec.wire == dear_collectives::DType::F32 {
        replay.sum_f32_gibs
    } else {
        replay.sum_bf16_gibs
    };
    let gamma_ns_per_byte = 1e9 / (sum_gibs * f64::from(1u32 << 30));
    // The forecast charges 4 bytes per element; scale β to the wire dtype.
    let wire_scale = spec.wire.size_bytes() as f64 / 4.0;
    let model = CostModel::new(
        ab.alpha_ns,
        ab.beta_ns_per_byte * wire_scale,
        gamma_ns_per_byte,
    );
    let sv = spec.state_vectors();
    let upd_ns_per_elem = single_upd * 1e6 / (sizes.params * (1 + sv)) as f64;
    let forecast = forecast_strategy(
        &spec.strategy,
        &model,
        WORLD,
        sizes.params,
        sv,
        upd_ns_per_elem,
    );
    let comm_ms = forecast.step_time.as_millis_f64();
    let predicted_ms = (single_ff + single_bp).max(comm_ms);
    report.notes.push(format!(
        "compose: FF+BP {:.3} ms, DES comm+update {comm_ms:.3} ms -> predicted {predicted_ms:.3} ms vs measured {measured_step_ms:.3} ms/step",
        single_ff + single_bp
    ));

    let per_rank_step = (steps * WORLD as u64) as f64;
    let wire_bytes = untraced.socket_bytes.unwrap_or(untraced.payload_bytes) as f64 / per_rank_step;
    let retries = untraced.send_retries.unwrap_or(0) as f64 / per_rank_step;
    let ring_bytes = (sizes.max_group_elems * 4) as f64;
    let busbw = ring_bytes / (replay.ar_ms / 1e3) * 2.0 * (WORLD as f64 - 1.0) / WORLD as f64;
    let gib = f64::from(1u32 << 30);

    report.metric("simd.sum_f32.gibs", replay.sum_f32_gibs, "GiB/s");
    report.metric("simd.sum_bf16.gibs", replay.sum_bf16_gibs, "GiB/s");
    report.metric(
        "simd.encode_round_bf16.gibs",
        replay.encode_round_bf16_gibs,
        "GiB/s",
    );
    report.metric("simd.decode_bf16.gibs", replay.decode_bf16_gibs, "GiB/s");
    report.metric(
        "wire.encode_ms_per_step",
        replay.wire_encode_ms_per_step,
        "ms",
    );
    report.metric(
        "wire.accumulate_ms_per_step",
        replay.wire_accumulate_ms_per_step,
        "ms",
    );
    report.metric("frame.roundtrip_gibs", replay.frame_roundtrip_gibs, "GiB/s");
    report.metric("transport.alpha_us", ab.alpha_ns / 1e3, "us");
    report.metric("transport.beta_ns_per_byte", ab.beta_ns_per_byte, "ns/B");
    report.metric("transport.wire_bytes_per_step", wire_bytes, "B");
    report.metric("transport.send_retries_per_step", retries, "count");
    report.metric("ring.rs_ms", replay.rs_ms, "ms");
    report.metric("ring.ag_ms", replay.ag_ms, "ms");
    report.metric("ring.ar_ms", replay.ar_ms, "ms");
    report.metric("ring.ar_busbw_gibs", busbw / gib, "GiB/s");
    report.metric(
        "ring.rs_plus_ag_over_ar",
        (replay.rs_ms + replay.ag_ms) / replay.ar_ms,
        "ratio",
    );
    report.metric("comm.op1_rs_ms_per_step", tr.op1_rs_ms, "ms");
    report.metric("comm.op1_upd_ms_per_step", tr.op1_upd_ms, "ms");
    report.metric("comm.op2_ag_ms_per_step", tr.op2_ag_ms, "ms");
    report.metric("comm.busy_share", tr.comm_busy_share, "ratio");
    report.metric("step.ff_ms", tr.ff_ms, "ms");
    report.metric("step.bp_ms", tr.bp_ms, "ms");
    report.metric("step.ffwait_ms", tr.ffwait_ms, "ms");
    report.metric("step.exposed_comm_ms", tr.exposed_comm_ms, "ms");
    report.metric("step.overlap_share", tr.overlap_share, "ratio");
    report.metric("step.unattributed_share", tr.unattributed_share, "ratio");
    report.metric("step.bp_contention_ms", tr.bp_ms - single_bp, "ms");
    report.metric("minidnn.ff_ms", single_ff, "ms");
    report.metric("minidnn.bp_ms", single_bp, "ms");
    report.metric("minidnn.update_ms", single_upd, "ms");
    report.metric("single.samples_per_s", single.samples_per_s, "1/s");
    report.metric("layout.groups", sizes.groups as f64, "count");
    report.metric(
        "layout.max_group_bytes",
        sizes.max_group_bytes(spec.wire) as f64,
        "B",
    );
    report.metric("setup.fabric_ms", untraced.fabric_ms, "ms");
    report.metric("setup.model_ms", untraced.model_ms, "ms");
    report.metric("setup.into_optim_ms", untraced.into_optim_ms, "ms");
    report.metric("setup.warmup_ms", untraced.warmup_ms, "ms");
    report.metric(
        "pipeline.dear_over_wfbp",
        median(&dear_rates) / median(&wfbp_rates),
        "ratio",
    );
    report.metric(
        "compose.predicted_over_measured",
        predicted_ms / measured_step_ms,
        "ratio",
    );
    report.metric(
        "trace.overhead_share",
        1.0 - median(&traced_rates) / median(&dear_rates),
        "ratio",
    );
    if spec.fabric != Fabric::Tcp {
        report.notes.push(
            "transport.wire_bytes_per_step counts payload bytes handed to the transport (no socket framing)"
                .to_string(),
        );
    }
    report
}
