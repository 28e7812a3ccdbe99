//! Order statistics and the per-layer figures derived from a trace.

use dear_core::trace::OverlapSummary;
use dear_sim::Timeline;

/// Linear-interpolation percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Per-step figures of one worker's timeline over the timed steps.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    pub op1_rs_ms: f64,
    pub op1_upd_ms: f64,
    pub op2_ag_ms: f64,
    /// Share of the traced window the comm thread spent in any span.
    pub comm_busy_share: f64,
    pub ff_ms: f64,
    pub bp_ms: f64,
    pub ffwait_ms: f64,
    pub exposed_comm_ms: f64,
    pub overlap_share: f64,
    /// Share of the traced window that no span of this worker covers.
    pub unattributed_share: f64,
}

impl RankTrace {
    /// Reads one worker's timeline (its `…/compute`, `…/comm` and
    /// `…/comm#xfer` streams) recorded over `steps` training steps.
    pub fn from_timeline(tl: &Timeline, steps: u64) -> RankTrace {
        let per_step = |stream_suffix: &str, label: &str| {
            tl.tasks()
                .iter()
                .filter(|t| tl.stream_name(t.stream).ends_with(stream_suffix))
                .filter(|t| t.label.starts_with(label))
                .map(|t| t.duration().as_secs_f64())
                .sum::<f64>()
                * 1e3
                / steps as f64
        };
        let mut spans: Vec<(u64, u64)> = tl
            .tasks()
            .iter()
            .map(|t| (t.start.as_nanos(), t.end.as_nanos()))
            .collect();
        spans.sort_unstable();
        let window = match (spans.first(), spans.iter().map(|s| s.1).max()) {
            (Some(first), Some(last)) => (first.0, last),
            _ => return RankTrace::default(),
        };
        let window_ns = (window.1 - window.0).max(1) as f64;
        let mut covered = 0u64;
        let mut reach = window.0;
        for &(s, e) in &spans {
            if e > reach {
                covered += e - s.max(reach);
                reach = e;
            }
        }
        let comm_busy_ns: u64 = tl
            .tasks()
            .iter()
            .filter(|t| tl.stream_name(t.stream).ends_with("/comm"))
            .map(|t| t.duration().as_nanos())
            .sum();
        let overlap = OverlapSummary::from_timeline(tl);
        RankTrace {
            op1_rs_ms: per_step("/comm", "OP1.RS"),
            op1_upd_ms: per_step("/comm", "OP1.UPD"),
            op2_ag_ms: per_step("/comm", "OP2.AG"),
            comm_busy_share: comm_busy_ns as f64 / window_ns,
            ff_ms: per_step("/compute", "FF["),
            bp_ms: per_step("/compute", "BP["),
            ffwait_ms: per_step("/compute", "FFWAIT"),
            exposed_comm_ms: overlap.exposed.as_secs_f64() * 1e3 / steps as f64,
            overlap_share: overlap.overlap_ratio(),
            unattributed_share: 1.0 - covered as f64 / window_ns,
        }
    }

    /// Field-wise mean over ranks.
    pub fn mean(ranks: &[RankTrace]) -> RankTrace {
        let m = |f: fn(&RankTrace) -> f64| mean(&ranks.iter().map(f).collect::<Vec<_>>());
        RankTrace {
            op1_rs_ms: m(|r| r.op1_rs_ms),
            op1_upd_ms: m(|r| r.op1_upd_ms),
            op2_ag_ms: m(|r| r.op2_ag_ms),
            comm_busy_share: m(|r| r.comm_busy_share),
            ff_ms: m(|r| r.ff_ms),
            bp_ms: m(|r| r.bp_ms),
            ffwait_ms: m(|r| r.ffwait_ms),
            exposed_comm_ms: m(|r| r.exposed_comm_ms),
            overlap_share: m(|r| r.overlap_share),
            unattributed_share: m(|r| r.unattributed_share),
        }
    }
}
