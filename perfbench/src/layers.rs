//! Per-layer metrics of the traced run, read from the program's own
//! telemetry (spans and counters, fleet-merged from worker sidecars) plus
//! the benchmark's timers around the public calls it makes.

use crate::measure::{percentile, ratio, Metrics};
use ivc_core::telemetry::{self, Snapshot};
use std::collections::HashMap;

/// Every per-layer metric, with its unit, in print order.  A metric that
/// does not apply to a workload (a fleet gap on an in-process run, say)
/// reads 0; `perfbench/README.md` lists where each one is measured.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("executor.trial_ms_p50", "ms"),
    ("executor.trial_ms_p90", "ms"),
    ("executor.cell_wait_s", "s"),
    ("executor.shared_prepare_ratio", "ratio"),
    ("prepare_cache.hit_ratio", "ratio"),
    ("prepare_cache.peak_mb", "MB"),
    ("prepare_cache.evictions", "count"),
    ("prepare_cache.entries_at_start", "count"),
    ("prepare.s_per_cell", "s"),
    ("prepare.attack_build_s", "s"),
    ("prepare.leakage_s", "s"),
    ("prepare.convolution_s", "s"),
    ("prepare.rir_build_s", "s"),
    ("prepare.utterance_render_s", "s"),
    ("perturb.mic_capture_ms", "ms"),
    ("perturb.ambient_noise_ms", "ms"),
    ("evaluate.recognition_ms", "ms"),
    ("evaluate.defense_features_ms", "ms"),
    ("evaluate.detector_ms", "ms"),
    ("setup.recognizer_s", "s"),
    ("setup.detector_train_s", "s"),
    ("partial.encode_s", "s"),
    ("partial.bytes_per_trial", "bytes"),
    ("partial.decode_s", "s"),
    ("merge.absorb_s", "s"),
    ("merge.finish_s", "s"),
    ("report.encode_s", "s"),
    ("report.bytes_per_trial", "bytes"),
    ("report.decode_s", "s"),
    ("report.decode_growth", "ratio"),
    ("fleet.worker_setup_share", "ratio"),
    ("fleet.shard_max_over_p50", "ratio"),
    ("fleet.coordinator_overhead_s", "s"),
    ("fleet.attempts_per_shard", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_trials_per_s", "1/s"),
];

/// The top-level spans a campaign's wall clock is attributed to.  They
/// never nest inside each other on one thread; every other program span
/// (the stages, cell waits, cache builds) nests inside `executor.trial`.
pub const TOP_LEVEL_SPANS: &[&str] = &[
    "campaign.setup",
    "campaign.detector_train",
    "executor.trial",
    "campaign.aggregate",
];

/// Set-up spans of a campaign (the part a shard worker repeats).
const SETUP_SPANS: &[&str] = &["campaign.setup", "campaign.detector_train"];

/// Per-layer values collected during a traced run.
#[derive(Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric, 0 where this workload measured none.
    pub fn into_metrics(self) -> Metrics {
        let mut metrics = Metrics::default();
        for (name, unit) in PER_LAYER {
            metrics.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        metrics
    }

    /// Fills the executor, cache-counter and stage metrics from a campaign
    /// snapshot covering `campaigns` identical campaign runs.  Times per
    /// campaign are totals divided by `campaigns`; per-trial times divide
    /// by the trials the executor completed.
    pub fn campaign(&mut self, snapshot: &Snapshot, campaigns: usize) {
        let total_s = |name: &str| snapshot.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
        let per_campaign = |name: &str| total_s(name) / campaigns.max(1) as f64;
        let trials = snapshot.counter("executor.trials_completed") as f64;
        let per_trial_ms = |name: &str| 1e3 * ratio(total_s(name), trials);

        let trial_ms: Vec<f64> = snapshot
            .events
            .iter()
            .filter(|(name, ..)| name == "executor.trial")
            .map(|&(_, _, _, dur_ns)| dur_ns as f64 / 1e6)
            .collect();
        let (p50, p90) = if trial_ms.is_empty() {
            // Fleet-merged documents carry histograms but no events.
            let stat = snapshot.span("executor.trial");
            (
                stat.map_or(0.0, |s| s.p50_ns() as f64 / 1e6),
                stat.map_or(0.0, |s| s.p90_ns() as f64 / 1e6),
            )
        } else {
            (percentile(&trial_ms, 0.5), percentile(&trial_ms, 0.9))
        };
        self.set("executor.trial_ms_p50", p50);
        self.set("executor.trial_ms_p90", p90);
        self.set("executor.cell_wait_s", per_campaign("executor.cell_wait"));
        self.set(
            "executor.shared_prepare_ratio",
            ratio(
                snapshot.counter("executor.trials_shared_prepare") as f64,
                trials,
            ),
        );
        let hits = snapshot.counter("executor.prepare_cache_hit") as f64;
        let misses = snapshot.counter("executor.prepare_cache_miss") as f64;
        self.set("prepare_cache.hit_ratio", ratio(hits, hits + misses));
        self.set(
            "prepare_cache.evictions",
            snapshot.counter("executor.prepare_cache_evicted") as f64 / campaigns.max(1) as f64,
        );
        self.set(
            "prepare.s_per_cell",
            ratio(
                total_s(telemetry::SPAN_STAGE_PREPARE),
                snapshot.counter("executor.cells_prepared") as f64,
            ),
        );
        self.set(
            "prepare.attack_build_s",
            per_campaign("prepare.attack_build"),
        );
        self.set("prepare.leakage_s", per_campaign("prepare.leakage"));
        self.set("prepare.convolution_s", per_campaign("prepare.convolution"));
        self.set("prepare.rir_build_s", per_campaign("prepare.rir_build"));
        self.set(
            "prepare.utterance_render_s",
            per_campaign("prepare.utterance_render"),
        );
        self.set(
            "perturb.mic_capture_ms",
            per_trial_ms("perturb.mic_capture"),
        );
        self.set(
            "perturb.ambient_noise_ms",
            per_trial_ms("perturb.ambient_noise"),
        );
        self.set(
            "evaluate.recognition_ms",
            per_trial_ms("evaluate.recognition"),
        );
        self.set(
            "evaluate.defense_features_ms",
            per_trial_ms("evaluate.defense_features"),
        );
        self.set("evaluate.detector_ms", per_trial_ms("evaluate.detector"));
    }
}

/// Seconds of a snapshot spent in set-up spans.
pub fn setup_seconds(snapshot: &Snapshot) -> f64 {
    SETUP_SPANS
        .iter()
        .filter_map(|name| snapshot.span(name))
        .map(|s| s.total_ns as f64 / 1e9)
        .sum()
}

/// Seconds of a snapshot inside top-level spans (per-thread sums: with
/// one thread this never exceeds the thread's wall clock).
pub fn top_level_seconds(snapshot: &Snapshot) -> f64 {
    TOP_LEVEL_SPANS
        .iter()
        .filter_map(|name| snapshot.span(name))
        .map(|s| s.total_ns as f64 / 1e9)
        .sum()
}

/// Seconds during which at least one top-level span was open on any
/// thread: the union of their trace intervals.
pub fn covered_seconds(snapshot: &Snapshot) -> f64 {
    let mut intervals: Vec<(u64, u64)> = snapshot
        .events
        .iter()
        .filter(|(name, ..)| TOP_LEVEL_SPANS.contains(&name.as_str()))
        .map(|&(_, _, start, dur)| (start, start + dur))
        .collect();
    intervals.sort_unstable();
    let mut covered_ns = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered_ns += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        covered_ns += e - s;
    }
    covered_ns as f64 / 1e9
}

/// One human line: the share of `wall_s` the named layers cover, and how
/// their self-time (span total minus the spans nested in it) splits
/// between the layers.
pub fn coverage_line(snapshot: &Snapshot, wall_s: f64, coverage: f64) -> String {
    let total = |name: &str| snapshot.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
    let stages = [
        ("prepare", total(telemetry::SPAN_STAGE_PREPARE)),
        ("perturb", total(telemetry::SPAN_STAGE_PERTURB)),
        ("evaluate", total(telemetry::SPAN_STAGE_EVALUATE)),
        ("cell_wait", total("executor.cell_wait")),
        ("band_summary", total("executor.band_summary")),
    ];
    let nested: f64 = stages.iter().map(|(_, s)| s).sum();
    let mut rows: Vec<(&str, f64)> = vec![
        ("setup", setup_seconds(snapshot)),
        ("executor", total("executor.trial") - nested),
    ];
    rows.extend(stages);
    rows.push(("aggregate", total("campaign.aggregate")));
    let self_s: f64 = rows.iter().map(|(_, s)| s).sum();
    let shares: Vec<String> = rows
        .iter()
        .map(|(name, s)| format!("{name} {:.1}%", 100.0 * ratio(*s, self_s)))
        .collect();
    format!(
        "coverage: named layers cover {:.1}% of {wall_s:.3}s wall; self-time split: {}",
        100.0 * coverage,
        shares.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_seconds_is_the_union_of_intervals() {
        let mut snapshot = telemetry::snapshot();
        snapshot.events = vec![
            ("executor.trial".into(), 1, 0, 10),
            ("executor.trial".into(), 2, 5, 10),
            ("stage.prepare".into(), 1, 0, 100),
            ("campaign.aggregate".into(), 1, 30, 5),
        ];
        assert!((covered_seconds(&snapshot) - 20e-9).abs() < 1e-15);
    }
}
